import io
import json
import math
import re
import tracemalloc
from contextlib import redirect_stdout

import numpy as np
import pytest

from fhnx import core, solutions
from fhnx.cli import main
from fhnx.core import FhnxError, Grid, OutOfDomain, Params, SingularParameter
from fhnx.solutions import (
    FAMILY_TAGS,
    FIXED_POINT_TAGS,
    SolutionFamily,
    make_family,
    sample_F,
)
from fhnx.verify import (
    ResidualReport,
    check_ansatz_constraints,
    invariant_surface_check,
    residual_system,
    residual_third_order,
)

from family_cases import FAMILY_CONSTANTS, STEADY_TAGS

FIG1 = Params(D=1.03, epsilon=0.3, beta=2.0, c=0.0)

STEADY_GRID = Grid(x_min=-5.0, x_max=5.0, nx=401)
SPACETIME_GRID = Grid(x_min=-3.0, x_max=3.0, nx=81, t_min=0.0, t_max=5.0, nt=41)


def A_of(p: Params) -> float:
    return -p.epsilon * p.beta / 3.0


class TestResidualSystem:
    def test_zero_state_exact(self):
        fam = make_family("FixedPointZero", FIG1)
        rep = residual_system(fam, FIG1, SPACETIME_GRID, "analytic")
        assert rep.linf_u == 0.0 and rep.linf_v == 0.0
        assert rep.l2_u == 0.0 and rep.l2_v == 0.0

    def test_tanh_front_analytic(self):
        p = Params(1.0, 0.3, 2.0)
        fam = make_family("TanhFrontPlus", p, x0=0.0)
        rep = residual_system(fam, p, STEADY_GRID, "analytic")
        assert rep.linf_u < 1e-12
        assert rep.linf_v < 1e-12

    def test_nonclassical_analytic(self):
        fam = make_family("NonClassicalExp", FIG1)
        rep = residual_system(fam, FIG1, SPACETIME_GRID, "analytic")
        assert rep.linf_u < 1e-10
        assert rep.linf_v < 1e-10

    def test_nonclassical_finite_difference(self):
        fam = make_family("NonClassicalExp", FIG1)
        rep = residual_system(fam, FIG1, SPACETIME_GRID, "finite-difference")
        assert rep.linf_u < 1e-5
        assert rep.linf_v < 1e-5
        assert rep.method == "finite-difference"

    def test_fd_close_to_analytic(self):
        fam = make_family("NonClassicalExp", FIG1)
        rep_a = residual_system(fam, FIG1, SPACETIME_GRID, "analytic")
        rep_f = residual_system(fam, FIG1, SPACETIME_GRID, "finite-difference")
        assert rep_f.linf_u <= rep_a.linf_u + 1e-4
        assert rep_f.linf_v <= rep_a.linf_v + 1e-4

    def test_norm_inequality_and_sample_count(self):
        fam = make_family("NonClassicalExp", FIG1)
        rep = residual_system(fam, FIG1, SPACETIME_GRID, "analytic")
        assert rep.sample_count == SPACETIME_GRID.nx * SPACETIME_GRID.nt
        assert rep.l2_u <= rep.linf_u * math.sqrt(rep.sample_count) * (1 + 1e-12)
        assert rep.l2_v <= rep.linf_v * math.sqrt(rep.sample_count) * (1 + 1e-12)

    def test_refinement_does_not_grow_residuals(self):
        fam = make_family("TanhFrontMinus", FIG1, x0=0.4)
        coarse = residual_system(
            fam, FIG1, Grid(x_min=-4.0, x_max=4.0, nx=101), "analytic"
        )
        fine = residual_system(
            fam, FIG1, Grid(x_min=-4.0, x_max=4.0, nx=201), "analytic"
        )
        assert fine.linf_u <= 2.0 * max(coarse.linf_u, 1e-16)
        assert fine.linf_v <= 2.0 * max(coarse.linf_v, 1e-16)

    def test_jacobisn_residual_reported_with_note(self):
        p = Params(1.0, 0.3, 2.0)
        fam = make_family("JacobiSnSteady", p, c1=0.0, c2=0.3)
        rep = residual_system(fam, p, Grid(x_min=-4.0, x_max=4.0, nx=201), "analytic")
        assert any("u/beta" in n for n in rep.notes)
        # magnitude logged, not asserted at machine zero
        assert rep.linf_u < 1e-8
        assert rep.linf_v == 0.0

    def test_worst_point_location(self):
        fam = make_family("NonClassicalExp", FIG1)
        rep = residual_system(fam, FIG1, SPACETIME_GRID, "analytic")
        t, x = rep.worst_point
        assert SPACETIME_GRID.t_min <= t <= SPACETIME_GRID.t_max
        assert SPACETIME_GRID.x_min <= x <= SPACETIME_GRID.x_max

    def test_report_invariant_enforced(self):
        with pytest.raises(FhnxError):
            ResidualReport(
                linf_u=1.0,
                l2_u=100.0,
                linf_v=0.0,
                l2_v=0.0,
                worst_point=(0.0, 0.0),
                method="analytic",
                sample_count=4,
            )

    def test_nonzero_forcing_honored(self):
        # residual of a c = 0 solution against the c != 0 operator is eps*c
        p_forced = Params(D=1.03, epsilon=0.3, beta=2.0, c=0.5)
        fam = make_family("FixedPointZero", p_forced)
        rep = residual_system(fam, p_forced, STEADY_GRID, "analytic")
        assert rep.linf_u == 0.0
        assert rep.linf_v == pytest.approx(p_forced.epsilon * 0.5, rel=1e-15)

    def test_fd_on_steady_grid_uses_nominal_time_step(self):
        # nt = 1 grids have dt = 0, so the stencil falls back to ht = 1e-3
        p = Params(1.0, 0.3, 2.0)
        fam = make_family("TanhFrontPlus", p, x0=0.0)
        rep = residual_system(fam, p, STEADY_GRID, "finite-difference")
        assert rep.linf_u < 1e-5
        assert rep.linf_v < 1e-5
        third = residual_third_order(fam, p, STEADY_GRID, "finite-difference")
        assert third.linf_u < 1e-5


class TestThirdOrder:
    def test_zero_state_exactly_zero(self):
        fam = make_family("FixedPointZero", FIG1)
        rep = residual_third_order(fam, FIG1, SPACETIME_GRID, "analytic")
        assert rep.linf_u == 0.0

    def test_constant_fixed_point_beta_four_exactly_zero(self):
        # u* = 1.5 is exactly representable, so the cancellation is exact
        p = Params(1.0, 0.3, 4.0)
        fam = make_family("FixedPointPlus", p)
        rep = residual_third_order(fam, p, STEADY_GRID, "analytic")
        assert rep.linf_u == 0.0

    def test_constant_fixed_point_beta_two_rounding_level(self):
        fam = make_family("FixedPointPlus", FIG1)
        rep = residual_third_order(fam, FIG1, STEADY_GRID, "analytic")
        assert rep.linf_u < 1e-15

    @pytest.mark.parametrize(
        "tag,constants",
        [
            ("FixedPointMinus", {}),
            ("TanhFrontPlus", {"x0": 0.3}),
            ("JacobiSnSteady", {"c1": 0.0, "c2": 0.3}),
            ("NonClassicalExp", {"c1": 1.0, "c2": 1.0}),
        ],
    )
    def test_differential_consequence(self, tag, constants):
        # families whose system residual vanishes satisfy the reduction
        fam = make_family(tag, FIG1, **constants)
        grid = SPACETIME_GRID if not fam.steady else STEADY_GRID
        sys_rep = residual_system(fam, FIG1, grid, "analytic")
        third = residual_third_order(fam, FIG1, grid, "analytic")
        assert sys_rep.max_linf() < 1e-10
        assert third.linf_u < 1e-9

    def test_fd_third_order(self):
        fam = make_family("NonClassicalExp", FIG1)
        rep = residual_third_order(fam, FIG1, SPACETIME_GRID, "finite-difference")
        assert rep.linf_u < 1e-5

    def test_forcing_term_in_reduction(self):
        # with c != 0 the reduction picks up -eps*c for a c = 0 solution
        p_forced = Params(D=1.03, epsilon=0.3, beta=2.0, c=0.5)
        fam = make_family("FixedPointZero", p_forced)
        rep = residual_third_order(fam, p_forced, STEADY_GRID, "analytic")
        assert rep.linf_u == pytest.approx(p_forced.epsilon * 0.5, rel=1e-15)


class TestAnsatzConstraints:
    def _samples(self, p, A, B=0.0, span=2.0, n=201):
        xs = np.linspace(-span, span, n)
        return sample_F(p, A, B, 1.0, 1.0, xs)

    def test_solved_branch_kills_first_constraint(self):
        A = A_of(FIG1)
        rep = check_ansatz_constraints(FIG1, A, 0.0, self._samples(FIG1, A))
        assert rep.eq19 <= 1e-12

    def test_b_zero_kills_b_constraints_exactly(self):
        A = A_of(FIG1)
        rep = check_ansatz_constraints(FIG1, A, 0.0, self._samples(FIG1, A))
        assert rep.eq20 == 0.0
        assert rep.eq22 == 0.0

    def test_differential_constraint_after_reduction(self):
        A = A_of(FIG1)
        rep = check_ansatz_constraints(FIG1, A, 0.0, self._samples(FIG1, A))
        assert rep.eq21_reduced < 1e-10
        assert rep.eq21_printed < 1e-10

    def test_wrong_A_breaks_first_constraint(self):
        A = A_of(FIG1)
        rep = check_ansatz_constraints(FIG1, 2.0 * A, 0.0, self._samples(FIG1, A))
        assert rep.eq19 > 1e-4

    def test_A_zero_rejected(self):
        with pytest.raises(SingularParameter):
            check_ansatz_constraints(FIG1, 0.0, 0.0, self._samples(FIG1, A_of(FIG1)))


class TestInvariantSurface:
    def test_nonclassical_satisfies_condition(self):
        fam = make_family("NonClassicalExp", FIG1)
        defect = invariant_surface_check(fam, A_of(FIG1), 0.0, SPACETIME_GRID)
        assert defect < 1e-13

    def test_steady_families_with_zero_coefficients(self):
        fam = make_family("TanhFrontPlus", FIG1, x0=0.0)
        assert invariant_surface_check(fam, 0.0, 0.0, STEADY_GRID) == 0.0

    def test_wrong_A_leaves_defect(self):
        fam = make_family("NonClassicalExp", FIG1)
        wrong = -FIG1.epsilon * FIG1.beta / 2.0
        defect = invariant_surface_check(fam, wrong, 0.0, SPACETIME_GRID)
        # |A_true - A| * max|u| over the grid; u(0, 0) = 2
        assert defect >= 1e-3
        assert defect == pytest.approx(abs(A_of(FIG1) - wrong) * 2.0, rel=1e-10)


class _EveryRow(SolutionFamily):
    """A steady family presented as time-dependent, so verify evaluates it on
    every row of the grid: the reference for the one-row path."""

    def __init__(self, fam: SolutionFamily):
        self.fam, self.notes = fam, fam.notes

    def eval(self, t, x):
        return self.fam.eval(t, x)

    def eval_derivs(self, t, x):
        return self.fam.eval_derivs(t, x)

    def eval_second_time_derivs(self, t, x):
        return self.fam.eval_second_time_derivs(t, x)


class TestSteadyRow:
    """Steady families are checked on one time row and reported for the grid."""

    @pytest.mark.parametrize("tag", STEADY_TAGS)
    def test_reports_equal_the_every_row_evaluation(self, tag):
        fam = make_family(tag, FIG1, **FAMILY_CONSTANTS.get(tag, {}))
        assert fam.steady
        reference = _EveryRow(fam)
        for method in ("analytic", "finite-difference"):
            for check in (residual_system, residual_third_order):
                row = check(fam, FIG1, SPACETIME_GRID, method)
                full = check(reference, FIG1, SPACETIME_GRID, method)
                assert row.to_dict() == full.to_dict(), (check.__name__, method)
                assert row.sample_count == SPACETIME_GRID.nx * SPACETIME_GRID.nt
        for A in (0.0, -0.1):
            assert invariant_surface_check(fam, A, 0.0, SPACETIME_GRID) == (
                invariant_surface_check(reference, A, 0.0, SPACETIME_GRID)
            )

    def test_verify_evaluates_steady_families_on_one_row(self, monkeypatch):
        rows: dict[str, list[int]] = {}

        def counting(method):
            def wrapper(self, t, x):
                shape = np.broadcast_shapes(np.shape(t), np.shape(x))
                rows.setdefault(self.tag, []).append(shape[0])
                return method(self, t, x)

            return wrapper

        classes = (
            solutions.FixedPointState,
            solutions.TanhFront,
            solutions.JacobiSnSteady,
            solutions.NonClassicalExp,
        )
        for cls in classes:
            for name in ("eval", "eval_derivs", "eval_second_time_derivs"):
                monkeypatch.setattr(cls, name, counting(getattr(cls, name)))
        for tag in FAMILY_TAGS:
            argv = ["verify", "--param", f"family.tag={tag}", "--param", "grid.nx=21",
                    "--param", "grid.nt=9"]
            for key, value in FAMILY_CONSTANTS.get(tag, {}).items():
                argv += ["--param", f"family.{key}={value}"]
            with redirect_stdout(io.StringIO()):
                assert main(argv) == 0
        assert set(rows) == set(FAMILY_TAGS)
        for tag, counts in rows.items():
            # system 2 analytic + 9 shifts, third order 3, invariant surface 2
            assert len(counts) == 16, tag
            assert set(counts) == ({1} if tag in STEADY_TAGS else {9}), tag


def test_fixed_point_verify_solves_the_cubic_once(monkeypatch):
    # the family keeps the roots it was matched to; the report reads them
    solves = []
    solve = solutions.solve_depressed_cubic

    def counting(p, q):
        solves.append((p, q))
        return solve(p, q)

    monkeypatch.setattr(solutions, "solve_depressed_cubic", counting)
    for tag in FIXED_POINT_TAGS:
        solves.clear()
        argv = ["verify", "--json", "--param", f"family.tag={tag}", "--param", "grid.nx=21",
                "--param", "grid.nt=9"]
        with redirect_stdout(io.StringIO()) as out:
            assert main(argv) == 0
        assert len(solves) == 1, tag
        match = json.loads(out.getvalue())["result"]["closed_form_root_match"]
        # the default params are FIG1, where c = 0
        assert match == {"root_index": solutions.closed_form_root_match(FIG1, tag),
                         "roots": [fp._asdict() for fp in solutions.fixed_points(FIG1)]}


class _Table(SolutionFamily):
    """A time-dependent family that returns fixed (nt, nx) arrays over a
    grid, zero except at the entries given as ``field=((it, ix, value), ...)``.
    A call gets only the rows of the times it asks for."""

    FIELDS = ("u", "v", "u_t", "u_x", "u_xx", "v_t")

    def __init__(self, grid, **entries):
        self.ts = grid.ts()
        self.fields = {name: np.zeros((grid.nt, grid.nx)) for name in self.FIELDS}
        for name, points in entries.items():
            for it, ix, value in points:
                self.fields[name][it, ix] = value

    def rows(self, t):
        rows = np.searchsorted(self.ts, np.ravel(t))
        assert np.array_equal(self.ts[rows], np.ravel(t))
        return rows

    def eval(self, t, x):
        rows = self.rows(t)
        return self.fields["u"][rows], self.fields["v"][rows]

    def eval_derivs(self, t, x):
        rows = self.rows(t)
        return tuple(self.fields[name][rows] for name in self.FIELDS[2:])


def _rows_per_block(monkeypatch, rows, grid):
    """Check ``grid`` in blocks of ``rows`` whole rows."""
    monkeypatch.setattr(core, "_BLOCK_SAMPLES", rows * grid.nx)


class TestNonFiniteResidual:
    """OutOfDomain names the first non-finite (t, x) in C order, whichever
    equation's residual it is in and however the rows are blocked."""

    GRID = Grid(x_min=0.0, x_max=10.0, nx=11, t_min=0.0, t_max=5.0, nt=6)
    NON_FINITE = pytest.mark.parametrize("entries, where", [
        # v_t overflows: only r_v is not finite there
        ({"v_t": ((3, 5, np.inf),)}, "(3, 5)"),
        # v overflows while u stays finite
        ({"v": ((2, 7, np.inf),)}, "(2, 7)"),
        # an earlier inf in r_u comes before a later nan in r_v
        ({"u_t": ((1, 2, np.inf),), "v_t": ((4, 7, np.nan),)}, "(1, 2)"),
        # and an earlier nan in r_v before a later inf in r_u
        ({"u_t": ((4, 7, np.inf),), "v_t": ((1, 2, np.nan),)}, "(1, 2)"),
        # within one row, an inf in r_u left of a nan in r_v
        ({"u_t": ((2, 3, -np.inf),), "v_t": ((2, 8, np.nan),)}, "(2, 3)"),
        # within two rows, a nan in the first right of an inf in the second
        ({"u_t": ((3, 1, np.inf),), "v_t": ((2, 9, np.nan),)}, "(2, 9)"),
    ], ids=["v_t", "v", "u-inf-then-v-nan", "v-nan-then-u-inf", "same-row", "two-rows"])
    BLOCK_ROWS = pytest.mark.parametrize("block_rows", [1, 2])

    @NON_FINITE
    def test_system_raises_at_the_first_non_finite_point(self, entries, where):
        fam = _Table(self.GRID, **entries)
        u, v = fam.eval(self.GRID.ts()[:, None], self.GRID.xs())
        assert np.isfinite(u).all()
        with pytest.raises(OutOfDomain, match=rf"at \(t, x\) = {re.escape(where)}:"):
            residual_system(fam, FIG1, self.GRID, "analytic")

    @BLOCK_ROWS
    @NON_FINITE
    def test_first_non_finite_point_across_block_edges(self, monkeypatch, block_rows,
                                                        entries, where):
        _rows_per_block(monkeypatch, block_rows, self.GRID)
        self.test_system_raises_at_the_first_non_finite_point(entries, where)

    def test_finite_table_reports_its_worst_point(self):
        fam = _Table(self.GRID, u_t=((1, 2, 0.5),), v_t=((4, 7, -2.0),))
        rep = residual_system(fam, FIG1, self.GRID, "analytic")
        assert (rep.linf_u, rep.linf_v, rep.worst_point) == (0.5, 2.0, (4.0, 7.0))

    @BLOCK_ROWS
    @pytest.mark.parametrize("v_t, worst", [
        (-2.0, (4.0, 7.0)),
        # a tie in a later block keeps the earlier point
        (-0.5, (1.0, 2.0)),
    ])
    def test_worst_point_across_block_edges(self, monkeypatch, block_rows, v_t, worst):
        _rows_per_block(monkeypatch, block_rows, self.GRID)
        fam = _Table(self.GRID, u_t=((1, 2, 0.5),), v_t=((4, 7, v_t),))
        rep = residual_system(fam, FIG1, self.GRID, "analytic")
        assert (rep.linf_u, rep.linf_v, rep.worst_point) == (0.5, -v_t, worst)

    @pytest.mark.parametrize("block_rows", [1, 2, 6])
    def test_squares_overflowing_across_blocks_give_finite_l2(self, monkeypatch, block_rows):
        # r_u = u_t: rows 0, 1 and 3 hold two entries each (their squares sum
        # to 1.6e308), row 4 three (they overflow), so the total overflows
        # whether a block holds one row, two or all six
        big = 9e153
        points = [(it, ix, big) for it in (0, 1, 3) for ix in (2, 8)]
        points += [(4, ix, -big) for ix in (0, 5, 10)]
        _rows_per_block(monkeypatch, block_rows, self.GRID)
        rep = residual_system(_Table(self.GRID, u_t=points), FIG1, self.GRID, "analytic")
        assert rep.linf_u == big
        assert rep.l2_u == pytest.approx(big * math.sqrt(len(points)), rel=1e-15, abs=0)
        assert (rep.linf_v, rep.l2_v, rep.worst_point) == (0.0, 0.0, (0.0, 2.0))


class TestRowBlocks:
    """Each check folds blocks of whole time rows into one report; blocked
    results equal the one-block result (l2 to rounding)."""

    CHECKS = (residual_system, residual_third_order)
    METHODS = ("analytic", "finite-difference")

    @classmethod
    def results(cls, fam, grid):
        reports = {(check.__name__, method): check(fam, FIG1, grid, method)
                   for check in cls.CHECKS for method in cls.METHODS}
        defects = [invariant_surface_check(fam, A, 0.0, grid) for A in (0.0, A_of(FIG1))]
        return reports, defects

    @pytest.mark.parametrize("tag", ["NonClassicalExp", *STEADY_TAGS])
    def test_blocks_equal_one_block(self, monkeypatch, tag):
        fam = make_family(tag, FIG1, **FAMILY_CONSTANTS.get(tag, {}))
        grid = SPACETIME_GRID
        assert grid.nt % 3  # 3-row blocks leave a partial last block
        _rows_per_block(monkeypatch, 2 * grid.nt, grid)  # one block
        whole, whole_defects = self.results(fam, grid)
        for rows in (1, 3):
            _rows_per_block(monkeypatch, rows, grid)
            reports, defects = self.results(fam, grid)
            assert defects == whole_defects, rows
            for key, rep in reports.items():
                ref = whole[key]
                assert (rep.linf_u, rep.linf_v, rep.worst_point, rep.sample_count) == (
                    ref.linf_u, ref.linf_v, ref.worst_point, ref.sample_count), (rows, key)
                for l2, ref_l2 in ((rep.l2_u, ref.l2_u), (rep.l2_v, ref.l2_v)):
                    assert l2 == pytest.approx(ref_l2, rel=1e-13, abs=0), (rows, key)


def _peak_bytes(fn, *args) -> int:
    fn(*args)  # warm up lazy imports and caches
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_finite_difference_peak_not_above_analytic():
    # the stencils are accumulated one shift at a time
    fam = make_family("NonClassicalExp", FIG1)
    grid = Grid(x_min=-3.0, x_max=3.0, nx=201, t_min=0.0, t_max=5.0, nt=101)
    analytic = _peak_bytes(residual_system, fam, FIG1, grid, "analytic")
    fd = _peak_bytes(residual_system, fam, FIG1, grid, "finite-difference")
    assert fd <= analytic, (fd, analytic)


def test_peak_memory_does_not_grow_with_nt():
    # blocks of whole rows bound each check's working set, whatever nt
    fam = make_family("NonClassicalExp", FIG1)
    checks = {
        "analytic": lambda grid: residual_system(fam, FIG1, grid, "analytic"),
        "finite-difference": lambda grid: residual_system(fam, FIG1, grid, "finite-difference"),
        "invariant surface": lambda grid: invariant_surface_check(fam, A_of(FIG1), 0.0, grid),
    }
    for name, check in checks.items():
        small, large = (
            _peak_bytes(check, Grid(x_min=-3.0, x_max=3.0, nx=801, t_min=0.0, t_max=5.0, nt=nt))
            for nt in (101, 401)
        )
        assert large <= 1.1 * small, (name, small, large)
