import math

import numpy as np
import pytest

from fhnx.core import (
    BlowUp,
    CflViolation,
    ConfigError,
    Grid,
    InsufficientSignal,
    Params,
    g,
)
from fhnx.simulate import (
    SimConfig,
    convergence_study,
    read_frames,
    run,
    write_frames,
)
from fhnx.solutions import FixedPointState, make_family

FIG1 = Params(D=1.03, epsilon=0.3, beta=2.0, c=0.0)


def cfl_grid(nx, t_max, x_span=3.0, cfl=0.25, p=FIG1):
    """Grid whose dt satisfies the explicit bound with margin."""
    dx = 2.0 * x_span / (nx - 1)
    dt_max = cfl * dx * dx / (2.0 * p.D)
    nt = int(math.ceil(t_max / dt_max)) + 1
    return Grid(x_min=-x_span, x_max=x_span, nx=nx, t_min=0.0, t_max=t_max, nt=nt)


class TestConfig:
    def test_cfl_gate(self):
        grid = Grid(x_min=-3.0, x_max=3.0, nx=201, t_min=0.0, t_max=5.0, nt=101)
        cfg = SimConfig(grid=grid, scheme="rk4", cfl_safety=0.5)
        with pytest.raises(CflViolation):
            cfg.check_cfl(FIG1)

    def test_semi_implicit_has_no_cfl_gate(self):
        grid = Grid(x_min=-3.0, x_max=3.0, nx=201, t_min=0.0, t_max=5.0, nt=101)
        SimConfig(grid=grid, scheme="semi-implicit").check_cfl(FIG1)

    def test_bad_scheme_and_bc(self):
        grid = cfl_grid(51, 0.1)
        with pytest.raises(ConfigError):
            SimConfig(grid=grid, scheme="euler")
        with pytest.raises(ConfigError):
            SimConfig(grid=grid, bc="neumann")
        with pytest.raises(ConfigError):
            SimConfig(grid=grid, cfl_safety=0.0)

    def test_single_time_node_rejected(self):
        grid = Grid(x_min=-1.0, x_max=1.0, nx=11)
        with pytest.raises(ConfigError):
            SimConfig(grid=grid).check_cfl(FIG1)


def one_step_grid(grid):
    """The first step of grid alone: nt = 2 with the same dt."""
    return Grid(x_min=grid.x_min, x_max=grid.x_max, nx=grid.nx,
                t_min=grid.t_min, t_max=grid.t_min + grid.dt, nt=2)


class TestStep:
    def test_zero_state_preserved_exactly(self):
        cfg = SimConfig(grid=one_step_grid(cfl_grid(41, 0.01)))
        fam = make_family("FixedPointZero", FIG1)
        out = run(fam, FIG1, cfg)
        assert np.all(out.us[1] == 0.0) and np.all(out.vs[1] == 0.0)

    def test_nonzero_fixed_point_step_drift(self):
        grid = one_step_grid(cfl_grid(41, 0.01))
        cfg = SimConfig(grid=grid)
        fam = make_family("FixedPointPlus", FIG1)
        u0, v0 = fam.eval(0.0, grid.xs())
        out = run(fam, FIG1, cfg)
        assert np.max(np.abs(out.us[1] - u0)) < 1e-12
        assert np.max(np.abs(out.vs[1] - v0)) < 1e-12

    def test_single_step_error_at_local_truncation(self):
        # exact data + exact boundaries: one step leaves O(dt * dx^2)
        fam = make_family("NonClassicalExp", FIG1)
        grid = one_step_grid(cfl_grid(101, 0.01))
        cfg = SimConfig(grid=grid)
        xs = grid.xs()
        out = run(fam, FIG1, cfg)
        ue, _ = fam.eval(grid.dt, xs)
        err = np.max(np.abs(out.us[1] - ue))
        assert err < 10.0 * grid.dt * grid.dx**2

    def test_blowup_detection(self):
        grid = Grid(x_min=-1.0, x_max=1.0, nx=11, t_min=0.0, t_max=5.0, nt=2)
        cfg = SimConfig(grid=grid, scheme="semi-implicit", bc="periodic")
        huge = FixedPointState(params=FIG1, tag="HugeState", u_star=9e5, v_star=-9e5)
        with pytest.raises(BlowUp) as err:
            run(huge, FIG1, cfg)
        assert err.value.step == 1
        assert err.value.t == grid.ts()[1]


class TestRun:
    def test_fixed_point_preserved_over_1000_steps(self):
        grid = Grid(x_min=-3.0, x_max=3.0, nx=41, t_min=0.0, t_max=1.0, nt=1001)
        cfg = SimConfig(grid=grid)
        cfg.check_cfl(FIG1)
        fam = make_family("FixedPointPlus", FIG1)
        result = run(fam, FIG1, cfg)
        assert result.max_error_u() < 1e-10
        assert result.max_error_v() < 1e-10

    def test_zero_state_error_identically_zero(self):
        grid = cfl_grid(41, 0.05)
        fam = make_family("FixedPointZero", FIG1)
        result = run(fam, FIG1, SimConfig(grid=grid))
        assert np.all(result.errors == 0.0)

    def test_steady_tanh_front_held_to_truncation(self):
        p = Params(1.0, 0.3, 2.0)
        fam = make_family("TanhFrontPlus", p, x0=0.0)
        grid = cfl_grid(201, 2.0, x_span=5.0, p=p)
        result = run(fam, p, SimConfig(grid=grid))
        assert result.max_error_u() < 1e-4

    def test_nonclassical_rk4_error_bound(self):
        fam = make_family("NonClassicalExp", FIG1)
        grid = cfl_grid(101, 1.0)
        result = run(fam, FIG1, SimConfig(grid=grid))
        assert result.max_error_u() < 1e-3

    def test_schemes_agree_on_benchmark(self):
        fam = make_family("NonClassicalExp", FIG1)
        grid = cfl_grid(101, 0.5)
        err_rk4 = run(fam, FIG1, SimConfig(grid=grid, scheme="rk4")).max_error_u()
        err_semi = run(
            fam, FIG1, SimConfig(grid=grid, scheme="semi-implicit")
        ).max_error_u()
        assert err_semi <= 10.0 * max(err_rk4, err_semi / 10.0)
        # both resolve the solution
        assert err_rk4 < 1e-3 and err_semi < 1e-2

    def test_periodic_run_stays_bounded(self):
        # periodic wrap is not an exact boundary for this family; just check
        # the machinery integrates stably on a short window
        fam = make_family("NonClassicalExp", FIG1)
        grid = cfl_grid(64, 0.05)
        result = run(fam, FIG1, SimConfig(grid=grid, bc="periodic"))
        assert np.isfinite(result.us).all()

    def test_semi_implicit_periodic_zero_state(self):
        fam = make_family("FixedPointZero", FIG1)
        grid = Grid(x_min=-2.0, x_max=2.0, nx=33, t_min=0.0, t_max=0.5, nt=101)
        result = run(fam, FIG1, SimConfig(grid=grid, scheme="semi-implicit", bc="periodic"))
        assert np.all(result.errors == 0.0)

    def test_error_decreases_under_refinement(self):
        fam = make_family("NonClassicalExp", FIG1)
        errs = []
        for nx in (51, 101):
            grid = cfl_grid(nx, 0.25)
            errs.append(run(fam, FIG1, SimConfig(grid=grid)).max_error_u())
        assert errs[1] < errs[0]


class TestConvergence:
    def test_spatial_order_two(self):
        fam = make_family("NonClassicalExp", FIG1)
        base = Grid(x_min=-3.0, x_max=3.0, nx=51, t_min=0.0, t_max=0.5, nt=301)
        study = convergence_study(fam, FIG1, base, refinements=2)
        assert all(1.8 <= o <= 2.2 for o in study.orders)
        assert study.order_mean == pytest.approx(2.0, abs=0.2)

    def test_coarse_pair_ratio_near_four(self):
        fam = make_family("TanhFrontPlus", FIG1, x0=0.0)
        base = Grid(x_min=-5.0, x_max=5.0, nx=25, t_min=0.0, t_max=0.2, nt=41)
        study = convergence_study(fam, FIG1, base, refinements=2)
        ratio = study.levels[0]["err"] / study.levels[1]["err"]
        assert ratio == pytest.approx(4.0, rel=0.35)

    def test_temporal_order_four_on_constant_state(self):
        # beta = 1, eps = 1.5 makes k = 0: spatially constant exact decay,
        # so the spatial stencil is exact and rk4's O(dt^4) is observable
        p = Params(D=1.0, epsilon=1.5, beta=1.0, c=0.0)
        fam = make_family("NonClassicalExp", p, c1=1.0, c2=1.0)
        errs = []
        for nt in (11, 21, 41):
            grid = Grid(x_min=-1.0, x_max=1.0, nx=5, t_min=0.0, t_max=1.0, nt=nt)
            cfg = SimConfig(grid=grid, scheme="rk4", cfl_safety=1.0)
            errs.append(run(fam, p, cfg).max_error_u())
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert all(3.5 <= o <= 4.5 for o in orders)

    def test_insufficient_signal_raised_at_float_floor(self):
        # a constant fixed point is preserved to rounding: no signal
        fam = make_family("FixedPointPlus", FIG1)
        base = Grid(x_min=-3.0, x_max=3.0, nx=11, t_min=0.0, t_max=0.01, nt=41)
        with pytest.raises(InsufficientSignal):
            convergence_study(fam, FIG1, base, refinements=2)

    def test_too_few_refinements_rejected(self):
        fam = make_family("NonClassicalExp", FIG1)
        base = cfl_grid(25, 0.05)
        with pytest.raises(ConfigError):
            convergence_study(fam, FIG1, base, refinements=1)


class TestLinearSolvers:
    """One semi-implicit step against a dense solve of (I - r L) u = rhs."""

    NX = (3, 4, 17, 64)  # one interior node, even sizes, a prime periodic size

    @staticmethod
    def step_and_dense_solve(nx, bc):
        fam = make_family("NonClassicalExp", FIG1)
        dx = 6.0 / (nx - 1)
        dt = 35.0 * dx * dx / FIG1.D  # r = 35
        grid = Grid(x_min=-3.0, x_max=3.0, nx=nx, t_min=0.0, t_max=dt, nt=2)
        out = run(fam, FIG1, SimConfig(grid=grid, scheme="semi-implicit", bc=bc))

        xs = grid.xs()
        r = grid.dt * FIG1.D / grid.dx**2
        u0, v0 = fam.eval(0.0, xs)
        rhs = u0 + grid.dt * (-v0 + g(u0))
        dense = (1.0 + 2.0 * r) * np.eye(nx) - r * np.eye(nx, k=1) - r * np.eye(nx, k=-1)
        if bc == "periodic":
            dense[0, -1] = dense[-1, 0] = -r
        else:
            dense[[0, -1]] = np.eye(nx)[[0, -1]]
            rhs[0], rhs[-1] = fam.eval(grid.t_min + grid.dt, xs[[0, -1]])[0]
        return out.us[1], np.linalg.solve(dense, rhs)

    def test_dirichlet_step_matches_dense_solve(self):
        for nx in self.NX:
            got, want = self.step_and_dense_solve(nx, "dirichlet-from-family")
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_periodic_step_matches_dense_solve(self):
        for nx in self.NX:
            got, want = self.step_and_dense_solve(nx, "periodic")
            np.testing.assert_allclose(got, want, atol=1e-12)


class TestBoundaryTraces:
    @pytest.mark.parametrize("scheme", ["rk4", "semi-implicit"])
    def test_ends_follow_step_lattice_and_eval_count(self, scheme):
        fam = make_family("NonClassicalExp", FIG1)
        calls = []

        class Counting:
            def eval(self, t, x):
                calls.append(t)
                return fam.eval(t, x)

        grid = cfl_grid(21, 0.01)
        out = run(Counting(), FIG1, SimConfig(grid=grid, scheme=scheme))
        ts, xs, ends = out.ts, out.xs, [0, -1]
        ue, ve = fam.eval(ts[:-1, None] + grid.dt, xs[ends])
        assert np.all(out.us[1:, ends] == ue)
        assert np.all(out.vs[1:, ends] == ve)
        assert len(calls) <= grid.nt + 4


class TestFrames:
    def test_round_trip(self, tmp_path):
        fam = make_family("NonClassicalExp", FIG1)
        grid = cfl_grid(33, 0.02)
        result = run(fam, FIG1, SimConfig(grid=grid))
        path = tmp_path / "frames.bin"
        write_frames(path, result.ts, result.xs, result.us, result.vs)
        ts, xs, us, vs = read_frames(path)
        np.testing.assert_array_equal(ts, result.ts)
        np.testing.assert_array_equal(xs, result.xs)
        np.testing.assert_array_equal(us, result.us)
        np.testing.assert_array_equal(vs, result.vs)

    def test_magic_header(self, tmp_path):
        path = tmp_path / "frames.bin"
        write_frames(path, [0.0], [0.0, 1.0, 2.0], [[1.0, 2.0, 3.0]], [[0.0, 0.0, 0.0]])
        raw = path.read_bytes()
        assert raw[:4] == b"FHN1"
        with pytest.raises(ConfigError):
            bad = tmp_path / "bad.bin"
            bad.write_bytes(b"XXXX" + raw[4:])
            read_frames(bad)
