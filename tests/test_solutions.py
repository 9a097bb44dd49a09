import cmath
import math

import numpy as np
import pytest

from fhnx.core import (
    BranchMismatch,
    Grid,
    ComplexResult,
    FhnxError,
    OutOfDomain,
    Params,
    SingularParameter,
    g,
    is_effectively_real,
)
from fhnx.solutions import (
    FAMILY_TAGS,
    FIXED_POINT_TAGS,
    FixedPointState,
    closed_form_root_match,
    eval_fixed_point_closed_form,
    family_catalog,
    fixed_points,
    make_family,
    _wavenumber,
    nonclassical_k,
    nonclassical_k_squared,
    sample_F,
    solve_F_exponent,
    solve_depressed_cubic,
    symmetry_catalog,
)

from family_cases import FAMILY_CONSTANTS
from nonclassical_oracle import v_bracket

FIG1 = Params(D=1.03, epsilon=0.3, beta=2.0, c=0.0)
SQRT15 = math.sqrt(1.5)  # fixed-point amplitude at beta = 2
BENCH_GRID = Grid(x_min=-3.0, x_max=3.0, nx=201, t_min=0.0, t_max=5.0, nt=101)


class TestCubicOracle:
    def test_zero_constant_term_factoring(self):
        roots, mult = solve_depressed_cubic(-2.25, 0.0)
        assert roots == (-1.5, 0.0, 1.5)
        assert mult == (1, 1, 1)

    def test_triple_root(self):
        assert solve_depressed_cubic(0.0, 0.0) == ((0.0,), (3,))

    def test_single_real_branch(self):
        (root,), (m,) = solve_depressed_cubic(1.0, -2.0)
        assert m == 1
        assert root**3 + root - 2.0 == pytest.approx(0.0, abs=1e-14)

    def test_trig_branch_generic(self):
        roots, mult = solve_depressed_cubic(-7.0, 3.0)
        assert len(roots) == 3 and mult == (1, 1, 1)
        for r in roots:
            assert r**3 - 7.0 * r + 3.0 == pytest.approx(0.0, abs=1e-12)

    def test_double_root_case(self):
        # (t - 2)^2 (t + 4) = t^3 - 12 t + 16
        roots, mult = solve_depressed_cubic(-12.0, 16.0)
        assert roots == (-4.0, 2.0)
        assert mult == (1, 2)


class TestFixedPoints:
    def test_beta_two(self):
        fps = fixed_points(FIG1)
        us = [fp.u for fp in fps]
        assert us == pytest.approx([-SQRT15, 0.0, SQRT15], abs=1e-15)
        assert [fp.v for fp in fps] == pytest.approx(
            [-SQRT15 / 2.0, 0.0, SQRT15 / 2.0], abs=1e-15
        )
        # cross-check against sqrt(3) sqrt(beta-1) / sqrt(beta)
        assert us[2] == pytest.approx(
            math.sqrt(3.0) * math.sqrt(1.0) / math.sqrt(2.0), rel=1e-15
        )

    def test_beta_one_triple_root(self):
        fps = fixed_points(Params(1.0, 0.3, 1.0))
        assert len(fps) == 1
        assert fps[0].u == 0.0 and fps[0].multiplicity == 3

    def test_beta_four_exact(self):
        fps = fixed_points(Params(1.0, 0.3, 4.0))
        assert [fp.u for fp in fps] == [-1.5, 0.0, 1.5]
        assert [fp.v for fp in fps] == [-0.375, 0.0, 0.375]

    def test_beta_below_one_only_origin(self):
        fps = fixed_points(Params(1.0, 0.3, 0.5))
        assert len(fps) == 1 and fps[0].u == 0.0

    def test_slow_equation_steadiness(self):
        for beta in (1.5, 2.0, 3.0, 4.0):
            for fp in fixed_points(Params(1.0, 0.3, beta)):
                assert fp.v == pytest.approx(fp.u / beta, abs=1e-15)


class TestClosedForms:
    @pytest.mark.parametrize("beta", [1.5, 2.0, 3.0, 4.0])
    @pytest.mark.parametrize("tag", FIXED_POINT_TAGS)
    def test_effectively_real_forms_match_oracle(self, beta, tag):
        p = Params(1.0, 0.3, beta)
        u, v = eval_fixed_point_closed_form(p, tag)
        assert is_effectively_real(u)
        idx = closed_form_root_match(p, tag)
        assert idx is not None
        fp = fixed_points(p)[idx]
        assert u.real == pytest.approx(fp.u, abs=1e-9)
        assert v.real == pytest.approx(fp.v, abs=1e-9)

    def test_zero_form_is_exact(self):
        u, v = eval_fixed_point_closed_form(FIG1, "FixedPointZero")
        assert u == 0.0 and v == 0.0

    def test_plus_at_beta_two(self):
        u, v = eval_fixed_point_closed_form(FIG1, "FixedPointPlus")
        assert u.real == pytest.approx(1.224744871391589, abs=1e-12)
        assert v.real == pytest.approx(0.6123724356957945, abs=1e-12)

    def test_cardano_forms_match_positive_root_at_beta_two(self):
        for tag in ("FixedPointCardanoA", "FixedPointCardanoB"):
            u, _ = eval_fixed_point_closed_form(FIG1, tag)
            assert u.real == pytest.approx(SQRT15, rel=1e-12)
            assert abs(u.imag) < 1e-12

    def test_plus_is_complex_below_beta_one(self):
        u, _ = eval_fixed_point_closed_form(Params(1.0, 0.3, 0.5), "FixedPointPlus")
        assert not is_effectively_real(u)
        assert closed_form_root_match(Params(1.0, 0.3, 0.5), "FixedPointPlus") is None

    def test_family_rejects_a_complex_closed_form(self):
        with pytest.raises(OutOfDomain, match="FixedPointPlus: closed form is not effectively real"):
            make_family("FixedPointPlus", Params(1.0, 0.3, 0.5))

    def test_cardano_collapses_to_origin_below_beta_one(self):
        p = Params(1.0, 0.3, 0.5)
        for tag in ("FixedPointCardanoA", "FixedPointCardanoB"):
            u, _ = eval_fixed_point_closed_form(p, tag)
            assert is_effectively_real(u)
            assert u.real == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("beta", [1.5, 2.0, 3.0, 4.0])
    def test_closed_forms_cover_every_root(self, beta):
        # set equality: the five radical forms collectively land on all
        # three oracle roots (tolerance 1e-9)
        p = Params(1.0, 0.3, beta)
        matched = {closed_form_root_match(p, tag) for tag in FIXED_POINT_TAGS}
        assert matched == set(range(len(fixed_points(p))))

    def test_cardano_singular_at_beta_one(self):
        p = Params(1.0, 0.3, 1.0)
        for tag in ("FixedPointCardanoA", "FixedPointCardanoB"):
            with pytest.raises(SingularParameter):
                eval_fixed_point_closed_form(p, tag)

    def test_unknown_tag_is_an_error(self):
        with pytest.raises(FhnxError, match="unknown fixed-point tag 'TanhFrontPlus'"):
            eval_fixed_point_closed_form(FIG1, "TanhFrontPlus")

    def test_cardano_rounding_far_below_beta_one_is_no_branch_error(self):
        # below beta = 1 the only root is 0, and the Cardano terms, each about
        # 1/sqrt(beta), cancel to their rounding; far enough down W**3 and
        # V**3 underflow.  Neither is a branch error.
        for k in range(1281):  # beta = 10**(-k/4) from 1 down to 1e-320
            p = Params(1.0, 0.3, 10.0 ** (-k / 4))
            for tag in ("FixedPointCardanoA", "FixedPointCardanoB"):
                try:
                    make_family(tag, p)
                except (OutOfDomain, SingularParameter):  # domain errors, exit 3
                    pass


class TestTanhFront:
    def test_zero_crossing_at_minus_x0(self):
        u, v = make_family("TanhFrontPlus", FIG1, x0=0.7).eval(0.0, -0.7)
        assert float(u) == 0.0 and float(v) == 0.0

    def test_saturation_to_fixed_point_amplitude(self):
        # evaluate far in the tail: x + x0 = 40
        u, _ = make_family("TanhFrontPlus", FIG1, x0=0.0).eval(0.0, 40.0)
        assert float(u) == pytest.approx(-1.224744871391589, abs=1e-12)
        u, _ = make_family("TanhFrontMinus", FIG1, x0=0.0).eval(0.0, 40.0)
        assert float(u) == pytest.approx(+1.224744871391589, abs=1e-12)

    def test_steady_residual_from_analytic_derivatives(self):
        p = Params(1.0, 0.3, 2.0)
        fam = make_family("TanhFrontPlus", p, x0=0.0)
        u, v = fam.eval(0.0, 0.7)
        _, _, u_xx, _ = fam.eval_derivs(0.0, 0.7)
        r = p.D * float(u_xx) - float(v) + g(float(u))
        assert abs(r) < 1e-12

    @pytest.mark.parametrize("beta", [1.5, 2.0, 4.0])
    @pytest.mark.parametrize("D", [0.5, 1.0, 2.0])
    def test_steady_residual_parameter_sweep(self, beta, D):
        p = Params(D, 0.3, beta)
        xs = np.linspace(-5.0, 5.0, 41)
        fam = make_family("TanhFrontMinus", p, x0=0.37)
        u, v = fam.eval(0.0, xs)
        _, _, u_xx, _ = fam.eval_derivs(0.0, xs)
        r = p.D * u_xx - v + g(u)
        assert np.max(np.abs(r)) < 1e-12

    def test_requires_beta_above_one(self):
        with pytest.raises(OutOfDomain):
            make_family("TanhFrontPlus", Params(1.0, 0.3, 0.5))

    def test_time_derivatives_vanish(self):
        fam = make_family("TanhFrontMinus", FIG1, x0=1.0)
        u_t, _, _, v_t = fam.eval_derivs(3.0, 0.2)
        assert float(u_t) == 0.0 and float(v_t) == 0.0


class TestJacobiSnSteady:
    def test_zero_amplitude_when_c2_zero(self):
        fam = make_family("JacobiSnSteady", FIG1, c1=0.3, c2=0.0)
        u, v = fam.eval(0.0, np.linspace(-2, 2, 9))
        assert np.all(u == 0.0) and np.all(v == 0.0)

    def test_modulus_one_limit_matches_tanh_front(self):
        beta = 2.0
        p = Params(1.0, 0.3, beta)
        c2 = math.sqrt((5.0 * beta - 6.0) / beta)
        fam = make_family("JacobiSnSteady", p, c1=0.0, c2=c2)
        assert fam.modulus == 1.0
        front = make_family("TanhFrontMinus", p, x0=0.0)  # u = +a tanh(b x)
        xs = np.linspace(-3.0, 3.0, 61)
        u_sn, _ = fam.eval(0.0, xs)
        u_th, _ = front.eval(0.0, xs)
        assert np.max(np.abs(u_sn - u_th)) < 1e-6

    def test_generic_residual_is_reported_small(self):
        # exactness is not asserted at machine zero; log-level bound only
        p = Params(1.0, 0.3, 2.0)
        xs = np.linspace(-5.0, 5.0, 21)
        fam = make_family("JacobiSnSteady", p, c1=0.0, c2=0.3)
        u, v = fam.eval(0.0, xs)
        _, _, u_xx, _ = fam.eval_derivs(0.0, xs)
        r = p.D * u_xx - v + g(u)
        assert np.max(np.abs(r)) < 1e-8

    def test_derivatives_against_finite_differences(self):
        p = Params(1.0, 0.3, 2.0)
        fam = make_family("JacobiSnSteady", p, c1=0.4, c2=0.3)
        xs = np.linspace(-2.0, 2.0, 11)
        h = 1e-5
        _, u_x, u_xx, _ = fam.eval_derivs(0.0, xs)
        up, _ = fam.eval(0.0, xs + h)
        um, _ = fam.eval(0.0, xs - h)
        u0, _ = fam.eval(0.0, xs)
        np.testing.assert_allclose(u_x, (up - um) / (2 * h), atol=1e-6)
        np.testing.assert_allclose(u_xx, (up - 2 * u0 + um) / h**2, atol=1e-5)

    def test_singular_at_five_beta_six(self):
        with pytest.raises(SingularParameter):
            make_family("JacobiSnSteady", Params(1.0, 0.3, 1.2), c1=0.0, c2=0.1)

    def test_out_of_domain_below_six_fifths(self):
        with pytest.raises(OutOfDomain):
            make_family("JacobiSnSteady", Params(1.0, 0.3, 1.1), c1=0.0, c2=0.1)

    def test_modulus_window_enforced(self):
        with pytest.raises(OutOfDomain):
            make_family("JacobiSnSteady", FIG1, c1=0.0, c2=5.0)
        with pytest.raises(OutOfDomain):
            make_family("JacobiSnSteady", FIG1, c1=0.0, c2=-0.1)

    def test_steadiness_note_attached(self):
        fam = make_family("JacobiSnSteady", FIG1, c1=0.0, c2=0.3)
        assert any("u/beta" in note for note in fam.notes)


class TestNonClassicalK:
    def test_benchmark_value_is_imaginary(self):
        k = nonclassical_k(FIG1)
        assert k.real == 0.0
        assert k.imag == pytest.approx(0.6609789738588476, abs=1e-12)
        assert nonclassical_k_squared(FIG1) == pytest.approx(
            -5.4 / 12.36, rel=1e-15
        )

    def test_boundary_zero(self):
        # 9 - 6 beta - 2 eps beta^2 = 0 at beta = 1, eps = 1.5
        k = nonclassical_k(Params(1.0, 1.5, 1.0))
        assert abs(k) < 1e-12

    def test_real_branch(self):
        k = nonclassical_k(Params(1.0, 0.3, 1.0))
        assert k.imag == 0.0
        assert k.real == pytest.approx(math.sqrt(0.4), rel=1e-12)

    def test_literal_vs_simplified_sweep(self):
        # relative agreement with an absolute floor; strict relative accuracy
        # is unattainable arbitrarily close to the zero set of k**2
        rng = np.random.default_rng(42)
        for _ in range(1000):
            p = Params(
                D=rng.uniform(0.1, 5.0),
                epsilon=rng.uniform(0.01, 2.0),
                beta=rng.uniform(0.5, 4.0),
            )
            k = nonclassical_k(p)
            k2 = nonclassical_k_squared(p)
            assert abs(k * k - k2) <= 1e-12 * max(1.0, abs(k2))

    def test_array_sweep_matches_per_draw_reference_loop(self):
        # the per-draw form: cmath radical and Python-float k**2
        eps = np.finfo(float).eps
        draws = np.random.default_rng(8).uniform((0.1, 0.01, 0.5), (5.0, 2.0, 4.0), size=(300, 3))
        k, k2, mismatch = _wavenumber(*draws.T)
        assert np.all(mismatch <= 1e-12)
        for (D, e, b), k_i, k2_i in zip(draws, k, k2):
            rad = -2.0 * e**4 * b**4 - 6.0 * e**3 * b**3 + 9.0 * e**3 * b**2
            den = 6.0 * e * b * math.sqrt(D) * cmath.sqrt(e * b)
            k_ref = cmath.sqrt(rad) * math.sqrt(6.0) / den
            k2_ref = (9.0 - 6.0 * b - 2.0 * e * b**2) / (6.0 * b * D)
            p = Params(D, e, b)
            # scalar k**2 keeps its bytes; complex division may round k differently
            assert nonclassical_k_squared(p) == k2_ref
            assert abs(nonclassical_k(p) - k_ref) <= 4 * eps * abs(k_ref)
            # array powers need not round like libm's pow; rad cancels near k = 0
            assert abs(k2_i - k2_ref) <= 4 * eps * max(1.0, abs(k2_ref))
            assert abs(k_i - k_ref) <= 64 * eps * max(1.0, abs(k_ref))

    @pytest.mark.parametrize(
        "p",
        [Params(1.03, 0.3, 1e-300), Params(1.03, 1e-300, 2.0), Params(1.03, 0.3, 1e200),
         Params(1e-300, 0.3, 1e-10)],
    )
    def test_non_finite_wavenumber_is_singular_parameter(self, p):
        with pytest.raises(SingularParameter, match="wavenumber is not finite"):
            nonclassical_k(p)


class TestNonClassicalFamily:
    def test_origin_values(self):
        u, v = make_family("NonClassicalExp", FIG1, c1=1.0, c2=1.0).eval(0.0, 0.0)
        assert float(u) == pytest.approx(2.0, abs=1e-15)
        assert float(v) == pytest.approx(-7.0 / 6.0, abs=1e-12)

    def test_v_consistency_two_routes(self):
        # closed-form v vs v = D u_xx - u_t + g(u)
        ts = np.linspace(0.0, 5.0, 21)[:, None]
        xs = np.linspace(-3.0, 3.0, 41)[None, :]
        fam = make_family("NonClassicalExp", FIG1, c1=1.0, c2=1.0)
        u, v = fam.eval(ts, xs)
        u_t, _, u_xx, _ = fam.eval_derivs(ts, xs)
        v_from_u = FIG1.D * u_xx - u_t + g(u)
        assert np.max(np.abs(v - v_from_u)) < 1e-10

    def test_separable_time_decay(self):
        fam = make_family("NonClassicalExp", FIG1, c1=1.0, c2=1.0)
        xs = np.linspace(-2.0, 2.0, 17)
        u0, _ = fam.eval(0.0, xs)
        u1, _ = fam.eval(1.0, xs)
        mask = np.abs(u0) > 1e-8
        ratio = u1[mask] / u0[mask]
        np.testing.assert_allclose(ratio, math.exp(-0.2), atol=1e-13)

    def test_time_derivative_relation(self):
        fam = make_family("NonClassicalExp", FIG1)
        ts = np.linspace(0.0, 3.0, 7)[:, None]
        xs = np.linspace(-2.0, 2.0, 9)[None, :]
        u, _ = fam.eval(ts, xs)
        u_t, _, u_xx, _ = fam.eval_derivs(ts, xs)
        np.testing.assert_allclose(u_t, fam.decay_rate * u, atol=1e-15)
        np.testing.assert_allclose(u_xx, fam.k_squared * u, atol=1e-15)

    def test_complex_result_for_asymmetric_imaginary_k(self):
        fam = make_family("NonClassicalExp", FIG1, c1=1.0, c2=2.0)
        kappa = math.sqrt(-fam.k_squared)
        # Im s = (c2 - c1) sin(kappa x), largest at the ends x = -1, 1
        worst = f"{abs(math.sin(kappa)):.3e}"
        with pytest.raises(ComplexResult, match=(
            f"^spatial factor of the exponential family has imaginary part {worst} "
            "above tolerance$"
        )):
            fam.eval(0.0, np.linspace(-1.0, 1.0, 5))
        # at x = 0 the factor is real but Im s_x = kappa (c2 - c1) cos(0) is not
        with pytest.raises(ComplexResult, match=(
            f"^spatial derivative of the exponential family has imaginary part {kappa:.3e} "
            "above tolerance$"
        )):
            fam.eval(0.0, 0.0)

    def test_real_k_asymmetric_is_fine(self):
        p = Params(1.0, 0.3, 1.0)  # k real
        fam = make_family("NonClassicalExp", p, c1=1.0, c2=2.0)
        u, v = fam.eval(0.5, 0.7)
        assert np.isfinite(float(u)) and np.isfinite(float(v))
        for d in fam.eval_derivs(0.5, 0.7):
            assert np.isfinite(float(d))

    def test_derivatives_against_finite_differences(self):
        rng = np.random.default_rng(7)
        fam = make_family("NonClassicalExp", FIG1)
        for _ in range(100):
            t = rng.uniform(0.0, 4.0)
            x = rng.uniform(-2.5, 2.5)
            h = 1e-5
            u_t, u_x, u_xx, v_t = (float(a) for a in fam.eval_derivs(t, x))
            up, vp = (float(a) for a in fam.eval(t + h, x))
            um, vm = (float(a) for a in fam.eval(t - h, x))
            assert u_t == pytest.approx((up - um) / (2 * h), abs=1e-6)
            assert v_t == pytest.approx((vp - vm) / (2 * h), abs=1e-6)
            uxp, _ = fam.eval(t, x + h)
            uxm, _ = fam.eval(t, x - h)
            u0, _ = fam.eval(t, x)
            assert u_x == pytest.approx((float(uxp) - float(uxm)) / (2 * h), abs=1e-6)
            assert u_xx == pytest.approx(
                (float(uxp) - 2 * float(u0) + float(uxm)) / h**2, abs=1e-4
            )

    @pytest.mark.parametrize(
        "p,c1,c2",
        [
            (FIG1, 1.0, 1.0),  # benchmark: imaginary k
            (Params(1.03, 0.3, 1.0), 1.0, 2.0),  # beta = 1: real k
            (Params(1.03, 0.3, 1.0), -0.5, 1.5),
            (Params(1.03, 0.3, 1.0), 1.0, 0.0),
        ],
        ids=["benchmark", "real-k", "real-k-mixed-sign", "real-k-single-exp"],
    )
    def test_closed_form_v_matches_paper_bracket(self, p, c1, c2):
        T, X = BENCH_GRID.meshes()
        _, v = make_family("NonClassicalExp", p, c1=c1, c2=c2).eval(T, X)
        ref = v_bracket(p, c1, c2, T, X)
        # effectively real at 1e-12, a tighter tolerance than REAL_TOL
        assert np.all(np.abs(np.imag(ref)) <= 1e-12 * np.maximum(1.0, np.abs(np.real(ref))))
        assert np.all(np.abs(v - ref.real) <= 1e-12 * np.maximum(1.0, np.abs(v)))

    @pytest.mark.parametrize(
        "p,t,x",
        [
            (FIG1, 2000.0, 0.5),  # E**3 = exp(1200) overflows
            (Params(1.03, 0.3, 0.5), 0.0, 100.0),  # P**6 = exp(6 k x) overflows
        ],
        ids=["late-time", "far-field"],
    )
    def test_closed_form_v_finite_where_bracket_overflows(self, p, t, x):
        with np.errstate(all="ignore"):
            assert not np.isfinite(v_bracket(p, 1.0, 1.0, t, x))
            fam = make_family("NonClassicalExp", p)
            u, v = fam.eval(t, x)  # no ComplexResult
            u_t, _, u_xx, _ = fam.eval_derivs(t, x)
        assert np.isfinite(u) and np.isfinite(v)
        np.testing.assert_allclose(v, p.D * u_xx - u_t + g(u), rtol=1e-12, atol=0.0)


class TestAnsatzType:
    def test_solved_branch_construction(self):
        # the family is the solved ansatz branch A = -eps beta / 3, B = 0
        fam = make_family("NonClassicalExp", FIG1, c1=1.0, c2=1.0)
        assert fam.decay_rate == pytest.approx(-0.2, abs=1e-15)
        k2 = nonclassical_k_squared(FIG1)
        assert fam.k_squared == k2
        assert abs(nonclassical_k(FIG1) ** 2 - k2) <= 1e-12 * max(1.0, abs(k2))

    def test_symmetry_catalog_recorded(self):
        tags = [s["tag"] for s in symmetry_catalog()]
        assert len(tags) == 5
        assert "LinearInU" in tags
        assert "TravelingFreeSpeed" in tags


class TestProfileOde:
    def test_f_at_origin(self):
        p = FIG1
        A = -p.epsilon * p.beta / 3.0
        assert sample_F(p, A, 0.0, 1.0, 1.0, [0.0]).F[0] == pytest.approx(2.0 + 0.0j)

    def test_exponent_squared_reproduces_wavenumber(self):
        p = FIG1
        A = -p.epsilon * p.beta / 3.0
        E = solve_F_exponent(p, A, 0.0)
        k2 = nonclassical_k_squared(p)
        assert abs(E * E - k2) <= 1e-12 * abs(k2)
        assert (E * E).real == pytest.approx(-0.4368932038834952, abs=1e-12)

    def test_single_exponential_semigroup(self):
        p = Params(1.0, 0.3, 1.0)  # real exponent
        A = -p.epsilon * p.beta / 3.0
        f = lambda x: sample_F(p, A, 0.0, 1.0, 0.0, [x]).F[0]
        x1, x2 = 0.4, 1.1
        assert f(x1 + x2) == pytest.approx(f(x1) * f(x2) / f(0.0), rel=1e-12)

    def test_singular_parameters(self):
        p = FIG1
        with pytest.raises(SingularParameter):
            sample_F(p, 0.0, 0.0, 1.0, 1.0, [0.3])
        with pytest.raises(SingularParameter):
            sample_F(p, -p.epsilon * p.beta, 0.0, 1.0, 1.0, [0.3])

    def test_samples_satisfy_profile_ode(self):
        p = FIG1
        A = -p.epsilon * p.beta / 3.0
        xs = np.linspace(-2.0, 2.0, 33)
        s = sample_F(p, A, 0.0, 1.0, 1.0, xs)
        E = solve_F_exponent(p, A, 0.0)
        np.testing.assert_allclose(s.F2, (E * E) * s.F, rtol=0, atol=1e-14)


class TestFamilySurface:
    def test_catalog_has_nine_tags(self):
        assert len(FAMILY_TAGS) == 9
        assert set(family_catalog()) == set(FAMILY_TAGS)

    @pytest.mark.parametrize("tag", FAMILY_TAGS)
    def test_every_family_constructs_and_evaluates(self, tag):
        constants = {
            "JacobiSnSteady": dict(c1=0.0, c2=0.3),
            "NonClassicalExp": dict(c1=1.0, c2=1.0),
            "TanhFrontPlus": dict(x0=0.2),
            "TanhFrontMinus": dict(x0=-0.2),
        }.get(tag, {})
        fam = make_family(tag, FIG1, **constants)
        assert fam.tag == tag
        assert isinstance(fam, FixedPointState) == (tag in FIXED_POINT_TAGS)
        u, v = fam.eval(0.5, 0.25)
        assert np.isfinite(float(u)) and np.isfinite(float(v))
        for d in fam.eval_derivs(0.5, 0.25):
            assert np.isfinite(float(d))
        for d in fam.eval_second_time_derivs(0.5, 0.25):
            assert np.isfinite(float(d))

    @pytest.mark.parametrize(
        "tag", [t for t in FAMILY_TAGS if t != "NonClassicalExp"]
    )
    def test_steady_families_satisfy_v_equals_u_over_beta(self, tag):
        constants = {
            "JacobiSnSteady": dict(c1=0.1, c2=0.3),
            "TanhFrontPlus": dict(x0=0.2),
            "TanhFrontMinus": dict(x0=-0.2),
        }.get(tag, {})
        fam = make_family(tag, FIG1, **constants)
        assert fam.steady
        xs = np.linspace(-4.0, 4.0, 33)
        u, v = fam.eval(0.0, xs)
        assert np.max(np.abs(v - u / FIG1.beta)) <= 1e-13
        u_t, _, _, v_t = fam.eval_derivs(0.0, xs)
        assert np.all(u_t == 0.0) and np.all(v_t == 0.0)

    @pytest.mark.parametrize("tag", FAMILY_TAGS)
    def test_describe_matches_catalog(self, tag):
        constants = {
            "JacobiSnSteady": dict(c1=0.0, c2=0.3),
            "TanhFrontPlus": dict(x0=0.2),
            "TanhFrontMinus": dict(x0=-0.2),
        }.get(tag, {})
        # the catalog entry describes the constructed family
        fam = make_family(tag, FIG1, **constants)
        info = family_catalog()[tag]
        assert fam.tag == tag
        assert fam.steady == info["steady"]
        assert set(constants) <= set(info["constant_names"])
        for name, value in constants.items():
            assert getattr(fam, name) == value

    @pytest.mark.parametrize("tag,constants", [
        ("TanhFrontPlus", dict(x0=1)),
        ("JacobiSnSteady", dict(c1=0, c2=1)),
        ("NonClassicalExp", dict(c1=1, c2=2)),
    ])
    def test_constants_become_floats(self, tag, constants):
        fam = make_family(tag, FIG1, **constants)
        for name, value in constants.items():
            assert type(getattr(fam, name)) is float and getattr(fam, name) == value

    def test_unknown_tag_and_constants_rejected(self):
        from fhnx.core import ConfigError

        with pytest.raises(ConfigError):
            make_family("NoSuchFamily", FIG1)
        with pytest.raises(ConfigError):
            make_family("NonClassicalExp", FIG1, x0=1.0)

    def test_derivatives_match_finite_differences_all_families(self):
        rng = np.random.default_rng(11)
        cases = [
            ("FixedPointPlus", {}),
            ("TanhFrontPlus", dict(x0=0.3)),
            ("JacobiSnSteady", dict(c1=0.2, c2=0.4)),
            ("NonClassicalExp", dict(c1=1.0, c2=1.0)),
        ]
        h = 1e-5
        for tag, constants in cases:
            fam = make_family(tag, FIG1, **constants)
            for _ in range(25):
                t = rng.uniform(0.0, 2.0)
                x = rng.uniform(-2.0, 2.0)
                u_t, u_x, u_xx, v_t = (float(a) for a in fam.eval_derivs(t, x))
                up = float(fam.eval(t, x + h)[0])
                um = float(fam.eval(t, x - h)[0])
                u0 = float(fam.eval(t, x)[0])
                assert u_x == pytest.approx((up - um) / (2 * h), abs=1e-6)
                assert u_xx == pytest.approx((up - 2 * u0 + um) / h**2, abs=1e-4)
                utp = float(fam.eval(t + h, x)[0])
                utm = float(fam.eval(t - h, x)[0])
                assert u_t == pytest.approx((utp - utm) / (2 * h), abs=1e-6)


EVAL_METHODS = ("eval", "eval_derivs", "eval_second_time_derivs")
# every catalog tag on the benchmark parameters, plus the real-k branch of
# the exponential family (beta = 0.5)
CONTRACT_CASES = [(tag, FIG1, FAMILY_CONSTANTS.get(tag, {})) for tag in FAMILY_TAGS] + [
    ("NonClassicalExp", Params(D=1.03, epsilon=0.3, beta=0.5), dict(c1=0.5, c2=2.0)),
]
CONTRACT_IDS = FAMILY_TAGS + ("NonClassicalExp-real-k",)
CONTRACT_GRID = Grid(x_min=-3.0, x_max=3.0, nx=17, t_min=0.0, t_max=2.0, nt=7)


class TestEvalContract:
    """Each family method returns fresh float arrays of the broadcast (t, x)
    shape, and open grids give the same bits as full meshes."""

    @pytest.fixture(params=CONTRACT_CASES, ids=CONTRACT_IDS)
    def fam(self, request):
        tag, p, constants = request.param
        return make_family(tag, p, **constants)

    @pytest.mark.parametrize("method", EVAL_METHODS)
    def test_open_grid_is_bitwise_the_full_mesh(self, fam, method):
        fn = getattr(fam, method)
        ts, xs = CONTRACT_GRID.ts(), CONTRACT_GRID.xs()
        T, X = CONTRACT_GRID.meshes()
        on_axes = fn(ts[:, None], xs[None, :])
        on_mesh = fn(T, X)
        assert len(on_axes) == len(on_mesh)
        for a, b in zip(on_axes, on_mesh):
            assert a.shape == b.shape == T.shape
            assert a.tobytes() == b.tobytes()
        if fam.steady:
            # verify evaluates a steady family on one time row and widens
            # the result, so the full mesh must be that row broadcast
            on_row = fn(ts[:1, None], xs[None, :])
            assert len(on_row) == len(on_mesh)
            for row, full in zip(on_row, on_mesh):
                assert row.shape == (1, CONTRACT_GRID.nx)
                assert np.broadcast_to(row, full.shape).tobytes() == full.tobytes()

    @pytest.mark.parametrize("method", EVAL_METHODS)
    def test_fresh_writable_unaliased_broadcast_shape(self, fam, method):
        fn = getattr(fam, method)
        ts, xs = CONTRACT_GRID.ts(), CONTRACT_GRID.xs()
        T, X = CONTRACT_GRID.meshes()
        for t, x in [
            (ts[:, None], xs[None, :]),
            (T, X),
            (0.5, xs),
            (ts[:, None], 0.25),
            (T, 0.25),
            (ts[:-1, None], xs[[0, -1]]),
        ]:
            out = fn(t, x)
            shape = np.broadcast_shapes(np.shape(t), np.shape(x))
            for a in out:
                assert isinstance(a, np.ndarray) and a.dtype == np.float64
                assert a.shape == shape
                assert a.flags.writeable
                for arg in (t, x):
                    assert not np.shares_memory(a, arg)
            for i, a in enumerate(out):
                for b in out[i + 1:]:
                    assert not np.shares_memory(a, b)

    @pytest.mark.parametrize("method", EVAL_METHODS)
    def test_scalar_arguments_give_zero_dim_arrays(self, fam, method):
        for a in getattr(fam, method)(0.5, 0.25):
            assert isinstance(a, np.ndarray) and a.shape == ()
            assert np.isfinite(a)
