import math
import os
import platform
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from fhnx import core, simulate
from fhnx.core import (
    _BLOCK_SAMPLES,
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
    _check_blowup,
    _states,
    _Stepper,
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
        huge = FixedPointState(tag="HugeState", u_star=9e5, v_star=-9e5)
        with pytest.raises(BlowUp) as err:
            run(huge, FIG1, cfg)
        assert err.value.step == 1
        assert err.value.t == grid.ts()[1]

    @pytest.mark.parametrize(
        "bad_u,bad_v,magnitude",
        [(None, math.nan, math.nan), (math.nan, None, math.nan), (math.inf, math.nan, math.nan),
         (None, -math.inf, math.inf), (2e6, None, 2e6)],
    )
    def test_blowup_check_sees_either_field(self, bad_u, bad_v, magnitude):
        # Python's max(5.0, nan) is 5.0: a NaN in v alone once passed
        u, v = np.ones(5), np.full(5, 5.0)
        if bad_u is not None:
            u[2] = bad_u
        if bad_v is not None:
            v[2] = bad_v
        with pytest.raises(BlowUp) as err:
            _check_blowup(u, v, 3, 0.5)
        assert (err.value.step, err.value.t) == (3, 0.5)
        if math.isnan(magnitude):
            assert math.isnan(err.value.magnitude)
        else:
            assert err.value.magnitude == magnitude

    def test_blowup_check_passes_the_bound_itself(self):
        _check_blowup(np.full(3, -1e6), np.full(3, 1e6), 1, 0.0)


class TestStencil:
    """rk4's Laplacian, D / dx**2 folded into three taps, against the ordered
    elementwise sum: a BLAS or FMA path that moves a byte fails here."""

    @pytest.mark.parametrize("nx", [3, 26, 101, 1601])
    def test_laplacian_is_the_ordered_three_tap_sum(self, monkeypatch, nx):
        grid = cfl_grid(nx, 0.01)
        stepper = _Stepper(FIG1, SimConfig(grid=grid, bc="periodic"),
                           make_family("FixedPointZero", FIG1))
        # with v = 0 and no reaction term, u_t is the Laplacian alone
        monkeypatch.setattr(simulate, "g", np.zeros_like)
        rng = np.random.default_rng(nx)
        u = rng.standard_normal(nx) * 10.0 ** rng.integers(-3, 4, nx)
        du, _ = stepper._rhs(0, 0, u, np.zeros(nx))
        a = FIG1.D / grid.dx**2
        w = np.concatenate((u[-1:], u, u[:1]))
        want = (w[:-2] * a + w[1:-1] * (-2.0 * a)) + w[2:] * a
        assert np.array_equal(du, want)
        # the data tell this sum from the unfolded D * (u[i-1] - 2 u[i] + u[i+1]) / dx**2
        assert not np.array_equal(du, FIG1.D * ((w[:-2] - 2.0 * u + w[2:]) / grid.dx**2))

    def test_periodic_constant_state_keeps_zero_error(self):
        fam = make_family("FixedPointPlus", FIG1)
        grid = Grid(x_min=-3.0, x_max=3.0, nx=101, t_min=0.0, t_max=0.5, nt=2001)
        result = run(fam, FIG1, SimConfig(grid=grid, bc="periodic"), trajectory=False)
        assert np.all(result.errors == 0.0)


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

    def test_keeps_no_trajectory(self):
        fam = make_family("NonClassicalExp", FIG1)
        base = Grid(x_min=-3.0, x_max=3.0, nx=21, t_min=0.0, t_max=0.4, nt=41)
        top = 8 * ((base.nx - 1) * 4 + 1) * ((base.nt - 1) * 16 + 1)
        tracemalloc.start()
        try:
            convergence_study(fam, FIG1, base, refinements=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one (nt, nx) float64 array of the top level, where a stored
        # trajectory holds two
        assert peak < top

    def test_too_few_refinements_rejected(self):
        fam = make_family("NonClassicalExp", FIG1)
        base = cfl_grid(25, 0.05)
        with pytest.raises(ConfigError):
            convergence_study(fam, FIG1, base, refinements=1)


class TestLinearSolvers:
    """One semi-implicit step against a dense solve of (I - r L) u = rhs."""

    # one interior node, even sizes, then sizes whose circulant length n
    # (nx periodic, the ring's nx - 1 Dirichlet) has a prime factor above 11
    # and takes the padded solve: periodic 17, 97, 102, 106, 1602 and the
    # benchmark's 1601, Dirichlet 54, 102 and 1602
    NX = (3, 4, 17, 64, 54, 97, 102, 106, 1601, 1602)
    # about the benchmark's r = 36.6, then two far beyond it, where a
    # pinned node without its constant mode split off cancels to a few
    # digits
    R = (35.0, 1e8, 1e12)

    @staticmethod
    def step_and_dense_solve(nx, bc, r):
        fam = make_family("NonClassicalExp", FIG1)
        dx = 6.0 / (nx - 1)
        dt = r * dx * dx / FIG1.D
        grid = Grid(x_min=-3.0, x_max=3.0, nx=nx, t_min=0.0, t_max=dt, nt=2)
        # the stepper itself: at large r the explicit terms alone pass the
        # blow-up bound that run() checks
        stepper = _Stepper(FIG1, SimConfig(grid=grid, scheme="semi-implicit", bc=bc), fam)
        stepper.trace(grid.ts(), slice(0, 1))

        xs = grid.xs()
        r = grid.dt * FIG1.D / grid.dx**2
        u0, v0 = fam.eval(0.0, xs)
        rhs = u0 + grid.dt * (-v0 + g(u0))
        dense = (1.0 + 2.0 * r) * np.eye(nx) - r * np.eye(nx, k=1) - r * np.eye(nx, k=-1)
        if bc == "periodic":
            dense[0, -1] = dense[-1, 0] = -r
            # each column sums to 1, so mean(u) = mean(rhs): adding 2 r mean(u)
            # to every row lifts the constant mode's eigenvalue from 1 to
            # 1 + 2 r, and the dense solve no longer loses log10(4 r) digits
            dense += 2.0 * r / nx
            rhs += 2.0 * r * rhs.mean()
        else:
            dense[[0, -1]] = np.eye(nx)[[0, -1]]
            rhs[0], rhs[-1] = fam.eval(grid.t_min + grid.dt, xs[[0, -1]])[0]
        return stepper.advance(u0, v0, 0)[0], np.linalg.solve(dense, rhs)

    def assert_steps_match_dense_solves(self, bc):
        for nx in self.NX:
            for r in self.R:
                got, want = self.step_and_dense_solve(nx, bc, r)
                # beyond r = 35, relative to max|want|: the dense solve itself
                # keeps about 11 digits at nx = 1602, its condition number
                # growing as nx**2
                tol = 1e-12 if r == 35.0 else 1e-10 * np.abs(want).max()
                np.testing.assert_allclose(got, want, rtol=0, atol=tol,
                                           err_msg=f"nx = {nx}, r = {r}")

    def test_dirichlet_step_matches_dense_solve(self):
        self.assert_steps_match_dense_solves("dirichlet-from-family")

    def test_periodic_step_matches_dense_solve(self):
        self.assert_steps_match_dense_solves("periodic")

    # the ring's length nx - 1 where it is fast, else its padded length
    @pytest.mark.parametrize("nx,length", [(1601, 1600), (54, 105), (102, 210)])
    def test_dirichlet_step_transforms_the_ring(self, monkeypatch, nx, length):
        lengths = []
        rfft = np.fft.rfft

        def recording(a, n=None, *args, **kwargs):
            lengths.append(np.shape(a)[-1] if n is None else n)
            return rfft(a, n, *args, **kwargs)

        monkeypatch.setattr(np.fft, "rfft", recording)
        self.step_and_dense_solve(nx, "dirichlet-from-family", 35.0)
        assert lengths and set(lengths) == {length}


class TestBoundaryTraces:
    @pytest.mark.parametrize("scheme", ["rk4", "semi-implicit"])
    def test_ends_follow_time_nodes_and_eval_count(self, scheme):
        fam = make_family("NonClassicalExp", FIG1)
        calls = []

        class Counting:
            def eval(self, t, x):
                calls.append(t)
                return fam.eval(t, x)

        grid = Grid(x_min=-3.0, x_max=3.0, nx=11, t_min=0.0, t_max=0.5, nt=41)
        assert grid.nt * grid.nx <= _BLOCK_SAMPLES
        out = run(Counting(), FIG1, SimConfig(grid=grid, scheme=scheme))
        ts, xs, ends = out.ts, out.xs, [0, -1]
        ue, ve = fam.eval(ts[1:, None], xs[ends])
        assert np.all(out.us[1:, ends] == ue)
        assert np.all(out.vs[1:, ends] == ve)
        # the grid has a row where t_n + dt, one ulp off ts[n + 1], moves an
        # end value, so the ends tell the two time lattices apart
        lattice_u, lattice_v = fam.eval(ts[:-1, None] + grid.dt, xs[ends])
        assert np.any(lattice_u != ue) or np.any(lattice_v != ve)
        # the stage traces the scheme reads (rk4 two, semi-implicit one),
        # the initial state and one error block
        assert len(calls) <= {"rk4": 4, "semi-implicit": 3}[scheme]

    @pytest.mark.parametrize("scheme", ["rk4", "semi-implicit"])
    def test_chunked_traces_match_one_chunk(self, monkeypatch, scheme):
        # eight samples per block: the traces of four steps at a time
        fam = make_family("NonClassicalExp", FIG1)
        grid = Grid(x_min=-3.0, x_max=3.0, nx=11, t_min=0.0, t_max=0.4, nt=41)
        cfg = SimConfig(grid=grid, scheme=scheme)
        whole = run(fam, FIG1, cfg)
        trace_calls = []

        class Counting:
            def eval(self, t, x):
                if np.size(x) == 2:
                    trace_calls.append(np.size(t))
                return fam.eval(t, x)

        monkeypatch.setattr(core, "_BLOCK_SAMPLES", 8)
        chunked = run(Counting(), FIG1, cfg)
        assert np.array_equal(chunked.errors, whole.errors)
        assert np.array_equal(chunked.us, whole.us) and np.array_equal(chunked.vs, whole.vs)
        # one call per stage offset the scheme reads and chunk of four steps
        stages = {"rk4": 2, "semi-implicit": 1}[scheme]
        assert trace_calls == [4] * (stages * 10)

    @pytest.mark.parametrize("scheme", ["rk4", "semi-implicit"])
    @pytest.mark.parametrize("bc", ["dirichlet-from-family", "periodic"])
    def test_yielded_state_unchanged_by_the_next_step(self, scheme, bc):
        fam = make_family("NonClassicalExp", FIG1)
        grid = Grid(x_min=-3.0, x_max=3.0, nx=11, t_min=0.0, t_max=0.4, nt=41)
        stage_0_times = grid.ts()[:-1, None]

        class StageZeroShifted:
            """Stage 0 prescribes ends that no state holds."""

            def eval(self, t, x):
                u, v = fam.eval(t, x)
                if np.shape(t) == stage_0_times.shape and np.array_equal(t, stage_0_times):
                    u += 1.0
                    v += 1.0
                return u, v

        states = _states(StageZeroShifted(), FIG1, SimConfig(grid=grid, scheme=scheme, bc=bc))
        held = [(u, v, u.copy(), v.copy()) for u, v in states]
        assert len(held) == grid.nt
        for u, v, u_then, v_then in held:
            assert np.array_equal(u, u_then) and np.array_equal(v, v_then)


class TestErrorPass:
    """The blocked error pass against the per-row formula, bit for bit."""

    @staticmethod
    def per_row(fam, grid, out):
        rows = []
        for i in range(grid.nt):
            ue, ve = fam.eval(out.ts[i], out.xs)
            eu = out.us[i] - ue
            ev = out.vs[i] - ve
            rows.append((
                float(np.max(np.abs(eu))),
                float(np.sqrt(grid.dx * np.sum(eu * eu))),
                float(np.max(np.abs(ev))),
                float(np.sqrt(grid.dx * np.sum(ev * ev))),
            ))
        return np.array(rows)

    @pytest.mark.parametrize("trajectory", [True, False])
    @pytest.mark.parametrize("scheme", ["rk4", "semi-implicit"])
    @pytest.mark.parametrize("bc", ["dirichlet-from-family", "periodic"])
    @pytest.mark.parametrize("nx, t_max, block", [
        (41, 0.5, 1024),  # several blocks, the last one partial
        (41, 0.05, 123),  # three rows per block, the last one partial
        (41, 0.05, 32),  # a block narrower than a row: one row per block
        (101, 0.25, _BLOCK_SAMPLES),  # the package's own block size
    ])
    def test_blocks_match_per_row_formula(
        self, monkeypatch, scheme, bc, nx, t_max, block, trajectory
    ):
        monkeypatch.setattr(core, "_BLOCK_SAMPLES", block)
        fam = make_family("NonClassicalExp", FIG1)
        grid = cfl_grid(nx, t_max)
        rows = max(1, block // nx)
        # several blocks, the last one partial, or one row per block
        assert rows == 1 or (grid.nt > 3 * rows and grid.nt % rows)
        cfg = SimConfig(grid=grid, scheme=scheme, bc=bc)
        full = run(fam, FIG1, cfg)
        ref = self.per_row(fam, grid, full)
        assert np.any(ref[1:] > 0.0)
        out = run(fam, FIG1, cfg, trajectory=trajectory)
        assert (out.us is None and out.vs is None) == (not trajectory)
        assert np.array_equal(out.errors, ref)
        np.testing.assert_array_equal(out.ts, full.ts)
        np.testing.assert_array_equal(out.xs, full.xs)

    @pytest.mark.parametrize("scheme", ["rk4", "semi-implicit"])
    @pytest.mark.parametrize("bc", ["dirichlet-from-family", "periodic"])
    def test_trajectory_is_the_stepped_states_bit_for_bit(self, monkeypatch, scheme, bc):
        # three rows per block: the error pass of each block must leave its
        # rows as the stepper yielded them
        monkeypatch.setattr(core, "_BLOCK_SAMPLES", 123)
        fam = make_family("NonClassicalExp", FIG1)
        cfg = SimConfig(grid=cfl_grid(41, 0.05), scheme=scheme, bc=bc)
        out = run(fam, FIG1, cfg)
        states = [(u.copy(), v.copy()) for u, v in _states(fam, FIG1, cfg)]
        assert out.us.tobytes() == np.stack([u for u, _ in states]).tobytes()
        assert out.vs.tobytes() == np.stack([v for _, v in states]).tobytes()

    @pytest.mark.parametrize("bc", ["dirichlet-from-family", "periodic"])
    def test_blowup_in_a_later_block_is_reported_alike(self, monkeypatch, bc):
        # two rows per block; the overshooting reaction blows up at step 6,
        # in the fourth block, after three blocks were measured
        monkeypatch.setattr(core, "_BLOCK_SAMPLES", 22)
        grid = Grid(x_min=-1.0, x_max=1.0, nx=11, t_min=0.0, t_max=0.4, nt=41)
        cfg = SimConfig(grid=grid, scheme="semi-implicit", bc=bc)
        fam = FixedPointState(tag="Overshoot", u_star=24.6, v_star=0.0)
        raised = []
        for trajectory in (True, False):
            with pytest.raises(BlowUp) as err:
                run(fam, FIG1, cfg, trajectory=trajectory)
            raised.append((err.value.step, err.value.t, err.value.magnitude, str(err.value)))
        assert raised[0] == raised[1]
        assert raised[0][0] >= 6

    @pytest.mark.parametrize("bc", ["dirichlet-from-family", "periodic"])
    def test_peak_memory_without_trajectory_does_not_grow_with_nt(self, bc):
        # one block buffer is reused, whatever nt
        fam = make_family("NonClassicalExp", FIG1)

        def peak(nt):
            grid = Grid(x_min=-3.0, x_max=3.0, nx=401, t_min=0.0, t_max=0.5, nt=nt)
            cfg = SimConfig(grid=grid, scheme="semi-implicit", bc=bc)
            run(fam, FIG1, cfg, trajectory=False)  # warm up lazy imports and caches
            tracemalloc.start()
            try:
                run(fam, FIG1, cfg, trajectory=False)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(201), peak(801)
        assert large <= 1.1 * small, (small, large)
        # under a quarter of the 5.1 MB that the (801, 401) us and vs would take
        assert large < 2 * 801 * 401 * 8 / 4, large

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="counts glibc heap faults")
    def test_blocks_fault_no_pages_back_in(self):
        # glibc trims the heap top once a block's temporaries are freed, so a
        # block that allocates them again faults their pages back in.  A fresh
        # interpreter: this one has freed arrays large enough to have raised
        # glibc's mmap and trim thresholds, which hides the trims.
        probe = textwrap.dedent("""
            import resource
            from fhnx.core import Grid, Params
            from fhnx.simulate import SimConfig, run
            from fhnx.solutions import make_family

            p = Params(D=1.03, epsilon=0.3, beta=2.0, c=0.0)
            grid = Grid(x_min=-3.0, x_max=3.0, nx=401, t_min=0.0, t_max=0.5, nt=2001)
            for tag, bc in (("NonClassicalExp", "dirichlet-from-family"),
                            ("FixedPointPlus", "periodic")):
                fam = make_family(tag, p)
                cfg = SimConfig(grid=grid, scheme="semi-implicit", bc=bc)
                run(fam, p, cfg, trajectory=False)  # warm up lazy imports and caches
                before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                run(fam, p, cfg, trajectory=False)
                print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        """)
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        out = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=path),
                             capture_output=True, text=True, check=True).stdout
        faults = [int(n) for n in out.split()]
        assert len(faults) == 2 and max(faults) < 1000, faults


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

    @pytest.mark.parametrize("keep", [6, 12, 20, -1, -8, -24])
    def test_truncated_file_is_a_config_error(self, tmp_path, keep):
        path = tmp_path / "frames.bin"
        write_frames(path, [0.0, 0.5], [0.0, 1.0, 2.0], [[1.0, 2.0, 3.0]] * 2, [[0.0] * 3] * 2)
        path.write_bytes(path.read_bytes()[:keep])
        with pytest.raises(ConfigError, match="frame file holds .* bytes; its header asks for"):
            read_frames(path)

    def test_trailing_bytes_are_a_config_error(self, tmp_path):
        path = tmp_path / "frames.bin"
        write_frames(path, [0.0], [0.0, 1.0], [[1.0, 2.0]], [[0.0, 0.0]])
        path.write_bytes(path.read_bytes() + b"\0" * 8)
        with pytest.raises(ConfigError, match="asks for 68"):
            read_frames(path)
