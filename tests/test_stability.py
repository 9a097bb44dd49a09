import math

import numpy as np
import pytest

from fhnx.core import ConfigError, Params
from fhnx.solutions import fixed_points
from fhnx.stability import (
    classify,
    classify_matrix,
    dispersion_sweep,
    eig_closed_form,
    jacobian_at,
)

FIG1 = Params(D=1.03, epsilon=0.3, beta=2.0, c=0.0)
SQRT15 = math.sqrt(1.5)


class TestJacobian:
    def test_entries_at_origin(self):
        m = jacobian_at(FIG1, 0.0, 0.0)
        np.testing.assert_allclose(m, [[1.0, -1.0], [0.3, -0.6]], atol=1e-15)

    def test_entries_at_nonzero_fixed_point(self):
        m = jacobian_at(FIG1, SQRT15, 0.0)
        assert m[0, 0] == pytest.approx(-0.5, abs=1e-14)
        assert m[0, 1] == -1.0
        assert m[1, 0] == 0.3
        assert m[1, 1] == -0.6

    def test_large_k_dominated_by_diffusion(self):
        m = jacobian_at(FIG1, 0.0, 100.0)
        assert m[0, 0] == pytest.approx(1.0 - 1.03 * 1e4, rel=1e-12)
        assert m[0, 0] < 0.0

    def test_negative_k_rejected(self):
        with pytest.raises(ConfigError):
            jacobian_at(FIG1, 0.0, -1.0)


class TestClassification:
    def test_origin_is_saddle(self):
        eigs, label = classify(FIG1, 0.0, 0.0)
        m = jacobian_at(FIG1, 0.0, 0.0)
        tr, det = m[0, 0] + m[1, 1], m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        assert tr == pytest.approx(0.4, abs=1e-14)
        assert det == pytest.approx(-0.3, abs=1e-14)
        assert label == "saddle"
        assert max(e.real for e in eigs) > 0.0

    def test_nonzero_fixed_points_are_stable_spirals(self):
        for u_star in (SQRT15, -SQRT15):
            eigs, label = classify(FIG1, u_star, 0.0)
            m = jacobian_at(FIG1, u_star, 0.0)
            tr = m[0, 0] + m[1, 1]
            det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
            disc = tr * tr - 4 * det
            assert tr == pytest.approx(-1.1, abs=1e-12)
            assert det == pytest.approx(0.6, abs=1e-12)
            assert disc == pytest.approx(-1.19, abs=1e-12)
            assert label == "stable spiral"
            assert all(e.real < 0.0 for e in eigs)

    def test_decoupled_slow_variable_is_degenerate(self):
        # eps -> 0 limit: eigenvalues {a11, 0}; exercised at matrix level
        # because Params enforces eps > 0
        eigs, label = classify_matrix([[0.7, -1.0], [0.0, 0.0]])
        assert label == "center/degenerate"
        assert sorted(e.real for e in eigs) == pytest.approx([0.0, 0.7])

    def test_eigenvalues_satisfy_characteristic_polynomial(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            m = rng.uniform(-3, 3, size=(2, 2))
            for s in eig_closed_form(m):
                tr = m[0, 0] + m[1, 1]
                det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
                assert abs(s * s - tr * s + det) < 1e-12

    def test_closed_form_matches_qr_eigensolver(self):
        # independent iterative route: LAPACK's QR algorithm via numpy
        rng = np.random.default_rng(123)
        for _ in range(1000):
            p = Params(
                D=rng.uniform(0.1, 5.0),
                epsilon=rng.uniform(0.05, 2.0),
                beta=rng.uniform(0.5, 4.0),
            )
            u_star = rng.uniform(-2.0, 2.0)
            k = rng.uniform(0.0, 5.0)
            m = jacobian_at(p, u_star, k)
            mine = sorted(eig_closed_form(m), key=lambda z: (z.real, z.imag))
            lapack = sorted(np.linalg.eigvals(m), key=lambda z: (z.real, z.imag))
            for a, b in zip(mine, lapack):
                assert abs(a - complex(b)) < 1e-12

    def test_verdict_invariant_under_eigenvector_scaling(self):
        # similarity by diag(s, 1/s) preserves (tr, det, disc)
        rng = np.random.default_rng(5)
        for _ in range(100):
            m = jacobian_at(FIG1, rng.uniform(-2, 2), rng.uniform(0, 3))
            _, label = classify_matrix(m)
            s = rng.uniform(0.1, 10.0)
            scale = np.diag([s, 1.0 / s])
            m_scaled = np.linalg.inv(scale) @ m @ scale
            _, label_scaled = classify_matrix(m_scaled)
            assert label == label_scaled


class TestDispersion:
    def test_origin_has_unstable_band_cutoff(self):
        sweep = dispersion_sweep(FIG1, 0.0, 5.0, 101)
        f = sweep.re_sigma_max
        assert f[0] > 0.0  # saddle at k = 0
        assert f[-1] < 0.0  # damped at large k
        assert len(sweep.band_edges) == 1
        kc = sweep.band_edges[0]
        # bisection refined to 1e-8 in k
        from fhnx.stability import _re_sigma_max

        assert abs(_re_sigma_max(FIG1, 0.0, kc)) < 1e-7
        assert _re_sigma_max(FIG1, 0.0, kc - 1e-4) > 0.0
        assert _re_sigma_max(FIG1, 0.0, kc + 1e-4) < 0.0

    def test_stable_point_has_no_turing_band(self):
        sweep = dispersion_sweep(FIG1, SQRT15, 5.0, 101)
        assert np.all(sweep.re_sigma_max < 0.0)
        assert sweep.band_edges == ()

    def test_vanishing_diffusion_is_flat(self):
        p = Params(D=1e-12, epsilon=0.3, beta=2.0)
        sweep = dispersion_sweep(p, 0.0, 1.0, 21)
        base = sweep.re_sigma_max[0]
        assert np.max(np.abs(sweep.re_sigma_max - base)) < 1e-6

    def test_diffusion_dominated_tail_is_damped(self):
        # once -D k**2 dominates, the diffusive branch decreases monotonically
        # and the slow branch saturates to -eps*beta from below, so the
        # largest growth rate stays uniformly negative (no high-k band)
        m = jacobian_at(FIG1, 0.0, 0.0)
        k0 = 10.0 * math.sqrt(abs(m[0, 0]) / FIG1.D)
        sweep = dispersion_sweep(FIG1, 0.0, 4.0 * k0, 201)
        tail = sweep.ks >= k0
        re_max = sweep.re_sigma_max[tail]
        re_min = sweep.sigma.real.min(axis=1)[tail]
        assert np.all(re_max <= -FIG1.epsilon * FIG1.beta)
        assert np.all(np.diff(re_min) < 0.0)

    @pytest.mark.parametrize("k_max,n", [(5.0, 1), (0.0, 11), (-1.0, 11)])
    def test_bad_sample_range_rejected(self, k_max, n):
        with pytest.raises(ConfigError):
            dispersion_sweep(FIG1, 0.0, k_max, n)

    def test_row_contract(self):
        sweep = dispersion_sweep(FIG1, 0.0, 5.0, 101)
        rows = list(sweep.rows())
        assert len(rows) == 101
        assert rows[0][0] == 0.0 and rows[-1][0] == 5.0
        assert all(len(r) == 5 for r in rows)


class TestReport:
    def test_report_fields(self):
        eigs, label = classify(FIG1, 0.0, k=0.0)
        assert label == "saddle"
        assert fixed_points(FIG1)[1].v == 0.0
        assert len(eigs) == 2
        sweep = dispersion_sweep(FIG1, 0.0, 5.0, 11)
        assert len(sweep.ks) == len(sweep.re_sigma_max) == 11

    def test_three_fixed_points_at_benchmark(self):
        fps = fixed_points(FIG1)
        assert len(fps) == 3
        labels = [classify(FIG1, fp.u)[1] for fp in fps]
        assert labels == ["stable spiral", "saddle", "stable spiral"]
