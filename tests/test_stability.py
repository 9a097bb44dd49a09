import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from fhnx import core
from fhnx.core import ConfigError, OutOfDomain, Params
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
SQRT_EPS = math.sqrt(np.finfo(float).eps)


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

    @pytest.mark.parametrize("bad", [0, 3, -1])
    def test_negative_k_anywhere_in_array_rejected(self, bad):
        ks = np.linspace(0.0, 2.0, 4).reshape(2, 2)
        ks.flat[bad] = -1e-300
        with pytest.raises(ConfigError):
            jacobian_at(FIG1, 0.0, ks)

    def test_array_matches_scalar_calls_and_cmath_loop_bitwise(self):
        rng = np.random.default_rng(17)
        ks = rng.uniform(0.0, 5.0, size=(3, 7))
        ks[0, 0] = 0.0
        for u_star in (0.0, SQRT15, -0.3):
            m = jacobian_at(FIG1, u_star, ks)
            s1, s2 = eig_closed_form(m)
            assert m.shape == (3, 7, 2, 2) and s1.shape == s2.shape == (3, 7)
            for idx in np.ndindex(ks.shape):
                m_k = jacobian_at(FIG1, u_star, float(ks[idx]))
                assert m_k.shape == (2, 2)
                assert m[idx].tobytes() == m_k.tobytes()
                sigma = np.array([s1[idx], s2[idx]]).tobytes()
                assert sigma == np.array(eig_closed_form(m_k)).tobytes()
                # the per-k form: Python floats and cmath
                k = float(ks[idx])
                a, b = 1.0 - u_star**2 - FIG1.D * k * k, -1.0
                c, d = FIG1.epsilon, -FIG1.epsilon * FIG1.beta
                tr, det = a + d, a * d - b * c
                root = cmath.sqrt(tr * tr - 4.0 * det)
                assert sigma == np.array([(tr + root) / 2.0, (tr - root) / 2.0]).tobytes()

    def test_overflowing_entry_is_domain_error(self):
        with pytest.raises(OutOfDomain, match="u\\* = 1e\\+200"):
            jacobian_at(FIG1, 1e200, 0.0)
        with pytest.raises(OutOfDomain):
            jacobian_at(FIG1, 0.0, np.array([0.0, 1e200]))


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
        f = sweep.sigma.real.max(axis=1)
        assert f[0] > 0.0  # saddle at k = 0
        assert f[-1] < 0.0  # damped at large k
        assert len(sweep.band_edges) == 1
        kc = sweep.band_edges[0]
        # closed form sqrt((1 - min(eps beta, 1/beta)) / D) at u* = 0
        assert kc == pytest.approx(math.sqrt(0.5 / 1.03), rel=1e-15)

        def re_sigma_max(k):
            return max(s.real for s in eig_closed_form(jacobian_at(FIG1, 0.0, k)))

        assert abs(re_sigma_max(kc)) < 1e-14
        assert re_sigma_max(kc - 1e-4) > 0.0
        assert re_sigma_max(kc + 1e-4) < 0.0

    def test_stable_point_has_no_turing_band(self):
        sweep = dispersion_sweep(FIG1, SQRT15, 5.0, 101)
        assert np.all(sweep.sigma.real.max(axis=1) < 0.0)
        assert sweep.band_edges == ()

    def test_vanishing_diffusion_is_flat(self):
        p = Params(D=1e-12, epsilon=0.3, beta=2.0)
        sweep = dispersion_sweep(p, 0.0, 1.0, 21)
        f = sweep.sigma.real.max(axis=1)
        assert np.max(np.abs(f - f[0])) < 1e-6

    def test_diffusion_dominated_tail_is_damped(self):
        # once -D k**2 dominates, the diffusive branch decreases monotonically
        # and the slow branch saturates to -eps*beta from below, so the
        # largest growth rate stays uniformly negative (no high-k band)
        m = jacobian_at(FIG1, 0.0, 0.0)
        k0 = 10.0 * math.sqrt(abs(m[0, 0]) / FIG1.D)
        sweep = dispersion_sweep(FIG1, 0.0, 4.0 * k0, 201)
        tail = sweep.ks >= k0
        re_max = sweep.sigma.real.max(axis=1)[tail]
        re_min = sweep.sigma.real.min(axis=1)[tail]
        assert np.all(re_max <= -FIG1.epsilon * FIG1.beta)
        assert np.all(np.diff(re_min) < 0.0)

    def test_non_finite_growth_rate_is_domain_error(self):
        p = Params(D=1.03, epsilon=1e200, beta=2.0)
        with pytest.raises(OutOfDomain, match="u\\* = 0.0"):
            dispersion_sweep(p, 0.0, 5.0, 11)

    @pytest.mark.parametrize("u_star,k_max,message", [
        (0.0, 5.0, None),
        (0.0, 1.4e154, "D k\\*\\*2 overflows float64 at k = 1.4e\\+154"),  # only near k_max
        (1e200, 5.0, "not finite at u\\* = 1e\\+200$"),
    ])
    def test_blocks_give_the_whole_sweep(self, monkeypatch, u_star, k_max, message):
        # each block of wavenumbers gives the same bits, or the same error,
        # as one block of all of them
        def sweep():
            if message is None:
                return dispersion_sweep(FIG1, u_star, k_max, 101)
            with pytest.raises(OutOfDomain, match=message):
                dispersion_sweep(FIG1, u_star, k_max, 101)

        whole = sweep()
        monkeypatch.setattr(core, "_BLOCK_SAMPLES", 28)  # 7 wavenumbers
        blocked = sweep()
        if message is None:
            assert blocked.ks.tobytes() == whole.ks.tobytes()
            assert blocked.sigma.tobytes() == whole.sigma.tobytes()
            assert blocked.band_edges == whole.band_edges

    @pytest.mark.parametrize("k_max,n", [(5.0, 1), (0.0, 11), (-1.0, 11)])
    def test_bad_sample_range_rejected(self, k_max, n):
        with pytest.raises(ConfigError):
            dispersion_sweep(FIG1, 0.0, k_max, n)

    def test_row_contract(self):
        sweep = dispersion_sweep(FIG1, 0.0, 5.0, 101)
        # the dispersion CSV's columns: k, re sigma_1, re sigma_2, im sigma_1, im sigma_2
        columns = (sweep.ks, *sweep.sigma.real.T, *sweep.sigma.imag.T)
        assert len(columns) == 5
        assert all(np.shape(c) == (101,) for c in columns)
        assert sweep.ks[0] == 0.0 and sweep.ks[-1] == 5.0


def _log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda x: 10.0**x)


@st.composite
def _sweep_cases(draw):
    p = Params(
        D=draw(_log_uniform(1e-2, 1e2)),
        epsilon=draw(_log_uniform(1e-2, 1e1)),
        beta=draw(_log_uniform(1e-1, 1e1)),
    )
    fixed = st.sampled_from([fp.u for fp in fixed_points(p)])
    u_star = draw(st.one_of(fixed, st.floats(-3.0, 3.0)))
    return p, u_star, draw(_log_uniform(1e-2, 1e2)), draw(st.integers(2, 400))


def _lapack_floor(m):
    """|max Re sigma| below which LAPACK's sign says nothing: eps-level, but
    sqrt(eps) |m| near a double eigenvalue, where the eigensolver's error
    grows to that scale (separation sqrt|tr^2 - 4 det| <= eps**(1/4) |m|)."""
    scale = np.abs(m).sum(axis=(-2, -1))
    a, b, c, d = m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1]
    near_double = np.abs((a + d) ** 2 - 4.0 * (a * d - b * c)) <= SQRT_EPS * scale**2
    return np.where(near_double, SQRT_EPS, 1e-9) * scale


def _edges_match_lapack(p, u_star, k_max, n) -> bool:
    """Assert the sweep's band edges are the sign changes of LAPACK's max Re
    sigma; False (nothing checked) when a sample lies within the floor."""
    sweep = dispersion_sweep(p, u_star, k_max, n)
    m = jacobian_at(p, u_star, sweep.ks)
    f = np.linalg.eigvals(m).real.max(axis=-1)
    # a sign is only meaningful above the eigensolver's rounding level;
    # this drops samples that sit on the edge itself (e.g. beta = eps = 1)
    if not np.all(np.abs(f) > _lapack_floor(m)):
        return False
    changes = np.flatnonzero(np.sign(f[:-1]) != np.sign(f[1:]))
    assert len(sweep.band_edges) == len(changes)
    for k_c, i in zip(sweep.band_edges, changes):
        assert sweep.ks[i] < k_c < sweep.ks[i + 1]
        assert f[i] > 0.0 > f[i + 1]
    return True


class TestBandEdgeProperty:
    @settings(max_examples=300, deadline=None)
    @given(_sweep_cases())
    def test_edges_are_the_sign_changes_of_lapack_eigenvalues(self, case):
        assume(_edges_match_lapack(*case))

    def test_double_eigenvalue_on_the_edge_is_below_the_floor(self):
        # a shrunk case of the property: at k = 0 the eigenvalues are 0 and
        # 1 - eps = -1.1e-8, nearly double; the band edge is exactly k = 0,
        # and LAPACK has returned max Re sigma = +5.8e-9 there
        p = Params(D=1.0, epsilon=1.0000000109559164, beta=1.0)
        assert dispersion_sweep(p, 0.0, 1.0, 2).band_edges == (0.0,)
        assert _lapack_floor(jacobian_at(p, 0.0, 0.0)) > 5.8e-9
        assert not _edges_match_lapack(p, 0.0, 1.0, 2)


class TestReport:
    def test_report_fields(self):
        eigs, label = classify(FIG1, 0.0, k=0.0)
        assert label == "saddle"
        assert fixed_points(FIG1)[1].v == 0.0
        assert len(eigs) == 2
        sweep = dispersion_sweep(FIG1, 0.0, 5.0, 11)
        assert sweep.ks.shape == (11,) and sweep.sigma.shape == (11, 2)

    def test_three_fixed_points_at_benchmark(self):
        fps = fixed_points(FIG1)
        assert len(fps) == 3
        labels = [classify(FIG1, fp.u)[1] for fp in fps]
        assert labels == ["stable spiral", "saddle", "stable spiral"]
