"""Residual verification for the system, its third-order reduction in u,
the ansatz constraint system and the invariant-surface condition.

Residual conventions (zero for an exact solution):

    r_u = u_t - D u_xx + v - g(u)
    r_v = v_t - eps (-beta v + c + u)

and, eliminating v by differential consequence, the single third-order
equation in u

    r_3 = D u_txx - u_tt + eps beta D u_xx - eps beta u_t - eps u
          + u_t (1 - u**2) + eps beta g(u) - eps c.

Derivatives come either from the families' closed forms ("analytic") or
from 5-point central stencils on an internally oversampled grid
("finite-difference"): the stencil steps are dx/4 and dt/4 of the report
grid, which decouples sampling from differentiation and keeps truncation
error below the assertion tolerances (1e-10 analytic, 1e-5 finite
difference by default).

Each check runs over blocks of whole time rows, at most 16,384 samples but
never less than one row (``core._row_blocks``, the block rule of
``simulate``'s error pass), so its memory is set by the block size, not by
the grid.  A block evaluates the family on its open grid
(``ts[rows, None]``, ``xs[None, :]``), so each transcendental factor is
computed once per axis, and the stencils' time shifts stay inside the
block.  The stencils are accumulated as each shift is evaluated, so the
shifted samples are never all held at once.  A steady family
(``fam.steady``) does not depend on t, so its checks evaluate one time row
(``ts[:1, None]``) and fold it once for the whole grid: the worst point is
the full mesh's first maximum, which lies in row 0, and l2 sums the
squares broadcast to each block's shape, block by block.

Each block takes |r_u| and |r_v| once and folds linf, the worst point and
finiteness from them into a running report: their elementwise maximum is
not finite exactly where either residual is.  l2 adds the blocks' sums of
squares in row order, so on a grid of more than one block it may differ
from a one-piece sum by rounding.  Evaluation runs with floating-point
overflow silenced; a non-finite residual raises OutOfDomain at its first
(t, x) in C order, before any later block is evaluated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .core import FhnxError, Grid, OutOfDomain, Params, SingularParameter, _row_blocks, g, g_prime
from .solutions import FSamples, SolutionFamily, nonclassical_k_squared

__all__ = [
    "ResidualReport",
    "AnsatzConstraintReport",
    "residual_system",
    "residual_third_order",
    "check_ansatz_constraints",
    "invariant_surface_check",
]

_METHODS = ("analytic", "finite-difference")

# 5-point central stencils (4th order): weights and the power of h in 12 h**order
_D1 = ((1.0, -8.0, 0.0, 8.0, -1.0), 1)
_D2 = ((-1.0, 16.0, -30.0, 16.0, -1.0), 2)
_SHIFTS = (-2, -1, 0, 1, 2)


@dataclass(frozen=True)
class ResidualReport:
    """Per-equation residual norms over a grid.

    l2 is the unnormalized root sum of squares, so l2 <= linf * sqrt(n).
    ``worst_point`` locates the largest pointwise residual across both
    equations.  For single-equation checks the v slots are zero and a note
    says so.
    """

    linf_u: float
    l2_u: float
    linf_v: float
    l2_v: float
    worst_point: tuple[float, float]
    method: str
    sample_count: int
    notes: tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self):
        root_n = np.sqrt(self.sample_count)
        for linf, l2 in ((self.linf_u, self.l2_u), (self.linf_v, self.l2_v)):
            if not (np.isfinite(linf) and np.isfinite(l2)) or linf < 0 or l2 < 0:
                raise FhnxError("residual norms must be finite and nonnegative")
            if l2 > linf * root_n * (1.0 + 1e-12) + 1e-300:
                raise FhnxError("norm inconsistency: l2 exceeds linf * sqrt(n)")

    def max_linf(self) -> float:
        return max(self.linf_u, self.linf_v)

    def to_dict(self) -> dict:
        return {
            "linf_u": self.linf_u,
            "l2_u": self.l2_u,
            "linf_v": self.linf_v,
            "l2_v": self.l2_v,
            "worst_t": self.worst_point[0],
            "worst_x": self.worst_point[1],
            "method": self.method,
            "sample_count": self.sample_count,
            "notes": list(self.notes),
        }


def _check_method(method: str) -> str:
    if method not in _METHODS:
        raise FhnxError(f"method must be one of {_METHODS}, got {method!r}")
    return method


class _Norms:
    """Running norms of one or two residuals over a grid, folded in a block
    of whole time rows at a time, first row first.

    ``peak`` folds |r| of each residual into its linf and the grid point of
    the largest elementwise maximum across them: the first in C order, so a
    tie in a later block keeps the earlier point.  A non-finite maximum
    raises OutOfDomain at the block's first non-finite (t, x), which is the
    grid's, since every earlier block was finite.  ``add`` also keeps each
    block's sum of squares, taken at the block's shape, so the one row of a
    steady family, folded once for every row, is summed block by block as
    the full mesh would be.  A block whose squares overflow also keeps the
    sum of its (r / block linf)**2.
    """

    def __init__(self, grid: Grid, count: int):
        self.ts, self.xs = grid.ts(), grid.xs()
        self.linf = [0.0] * count
        # per residual, per block: sum of squares, block linf, scaled sum or None
        self.sums: list[list[tuple]] = [[] for _ in range(count)]
        self.at = (0, 0)  # the worst point, as grid indices

    def peak(self, rows: slice, mags) -> list[float]:
        """Fold in |r| of each residual on ``rows``; return each block max."""
        mag = mags[0] if len(mags) == 1 else np.maximum(*mags)
        it, ix = np.unravel_index(int(np.argmax(mag)), mag.shape)
        if not np.isfinite(mag[it, ix]):  # argmax finds a nan or inf if there is one
            it, ix = np.unravel_index(int(np.argmax(~np.isfinite(mag))), mag.shape)
            raise OutOfDomain(
                f"residual is not finite at (t, x) = ({self.ts[rows.start + it]:.6g}, "
                f"{self.xs[ix]:.6g}): the family's values overflow float64 there"
            )
        if mag[it, ix] > max(self.linf):
            self.at = (rows.start + it, ix)
        maxima = [float(np.max(m)) for m in mags]
        self.linf = [max(linf, m) for linf, m in zip(self.linf, maxima)]
        return maxima

    def add(self, rows: slice, rs) -> None:
        """Fold in the residuals on ``rows``: a block, or one row standing
        for every row of a steady family, whose squares are summed a block
        of rows at a time.  Such a row's full blocks all hold the same
        squares, so one full block and the last partial block are summed
        once each and their totals appended per block."""
        nx = self.xs.size

        def sum_sq(sq, n):
            return float(np.sum(np.ascontiguousarray(np.broadcast_to(sq, (n, nx)))))

        for sums, r, m in zip(self.sums, rs, self.peak(rows, [np.abs(r) for r in rs])):
            sq = r * r
            by_rows: dict[int, tuple] = {}
            for block in _row_blocks(rows.stop - rows.start, nx):
                n = block.stop - block.start
                if n not in by_rows:
                    total = sum_sq(sq, n)
                    scaled = sum_sq(np.square(r / m), n) if math.isinf(total) else None
                    by_rows[n] = (total, m, scaled)
                sums.append(by_rows[n])

    def l2(self, k: int) -> float:
        """Root of residual k's summed squares.  When the total overflows,
        linf times the root of the summed (r / linf)**2, each block's term
        rescaled from its own sum."""
        sums, linf = self.sums[k], self.linf[k]
        total = 0.0
        for block_total, _, _ in sums:
            total += block_total
        if math.isfinite(total):
            return math.sqrt(total)
        total = 0.0
        for block_total, m, scaled in sums:
            total += block_total / linf / linf if scaled is None else scaled * (m / linf) ** 2
        return linf * math.sqrt(total)

    def report(self, method: str, notes: tuple[str, ...]) -> ResidualReport:
        """The report of the grid; a single residual's v norms are zero."""
        norms = [(linf, self.l2(k)) for k, linf in enumerate(self.linf)]
        if len(norms) == 1:
            norms.append((0.0, 0.0))
        (linf_u, l2_u), (linf_v, l2_v) = norms
        it, ix = self.at
        return ResidualReport(linf_u, l2_u, linf_v, l2_v, (float(self.ts[it]), float(self.xs[ix])),
                              method, self.ts.size * self.xs.size, notes)


def _scan(grid: Grid, steady: bool, residuals, fold) -> None:
    """Call fold(rows, residuals(T, X)) on each block of whole time rows of
    the grid (``core._row_blocks``), first row first, with the open grid
    T = ts[rows, None], X = xs[None, :].  A steady family's residuals are
    evaluated on the first time row and folded once, for every row."""
    ts, X = grid.ts(), grid.xs()[None, :]
    if steady:
        fold(slice(0, grid.nt), residuals(ts[:1, None], X))
        return
    for rows in _row_blocks(grid.nt, grid.nx):
        fold(rows, residuals(ts[rows, None], X))


def _stencil(sample, h: float, *diffs):
    """Central 5-point differences, accumulated one shift at a time.

    ``sample(shift)`` gives the tuple of fields at each shift of ``_SHIFTS``,
    in order; a shift is dropped before the next is sampled, so only one is
    alive at a time.  Field k is differentiated by ``diffs[k]`` (``_D1`` or
    ``_D2``): 0 + w * f summed left to right, then / (12 h**order).  Returns
    the differences and the unshifted fields.
    """
    sums, centre = [0] * len(diffs), None
    for n, shift in enumerate(_SHIFTS):
        fields = sample(shift)
        if shift == 0:
            centre = fields
        for k, ((weights, _), f) in enumerate(zip(diffs, fields)):
            if weights[n]:
                sums[k] += weights[n] * f
        del fields, f
    return [s / (12.0 * h**order) for s, (_, order) in zip(sums, diffs)], centre


def _fd_steps(grid: Grid) -> tuple[float, float]:
    # oversample the report grid 4x; steady grids get a nominal time step
    hx = grid.dx / 4.0
    ht = grid.dt / 4.0 if grid.dt > 0.0 else 1e-3
    return hx, ht


@np.errstate(over="ignore", invalid="ignore")
def residual_system(
    fam: SolutionFamily, p: Params, grid: Grid, method: str = "analytic"
) -> ResidualReport:
    """Residual norms of both model equations for a family over a grid."""
    method = _check_method(method)

    def residuals(T, X):
        if method == "analytic":
            u, v = fam.eval(T, X)
            u_t, _, u_xx, v_t = fam.eval_derivs(T, X)
        else:
            hx, ht = _fd_steps(grid)
            (u_t, v_t), (u, v) = _stencil(lambda i: fam.eval(T + i * ht, X), ht, _D1, _D1)
            (u_xx,), _ = _stencil(
                lambda j: (u,) if j == 0 else fam.eval(T, X + j * hx)[:1], hx, _D2
            )
        r_u = u_t - p.D * u_xx + v - g(u)
        return r_u, v_t - p.epsilon * (-p.beta * v + p.c + u)

    norms = _Norms(grid, 2)
    _scan(grid, fam.steady, residuals, norms.add)
    return norms.report(method, fam.notes)


@np.errstate(over="ignore", invalid="ignore")
def residual_third_order(
    fam: SolutionFamily, p: Params, grid: Grid, method: str = "analytic"
) -> ResidualReport:
    """Residual of the third-order reduction in u (single equation).

    Any solution of the system satisfies it identically, so its norms are
    bounded by the system residual norms for catalog families.
    """
    method = _check_method(method)

    def residuals(T, X):
        if method == "analytic":
            u, _ = fam.eval(T, X)
            u_t, _, u_xx, _ = fam.eval_derivs(T, X)
            u_tt, u_txx = fam.eval_second_time_derivs(T, X)
        else:
            hx, ht = _fd_steps(grid)

            def at_time_shift(i):
                # u at x shift 0 (for u_t and u_tt) and u_xx (for u_txx)
                (u_xx,), (u,) = _stencil(
                    lambda j: fam.eval(T + i * ht, X + j * hx)[:1], hx, _D2
                )
                return u, u, u_xx

            (u_t, u_tt, u_txx), (u, _, u_xx) = _stencil(at_time_shift, ht, _D1, _D2, _D1)
        return (_third_order_expr(p, u, u_t, u_xx, u_tt, u_txx),)

    norms = _Norms(grid, 1)
    _scan(grid, fam.steady, residuals, norms.add)
    return norms.report(method, fam.notes + ("single third-order equation in u; v slots unused",))


def _third_order_expr(p: Params, u, u_t, u_xx, u_tt, u_txx):
    e, b = p.epsilon, p.beta
    return (
        p.D * u_txx
        - u_tt
        + e * b * p.D * u_xx
        - e * b * u_t
        - e * u
        + u_t * g_prime(u)
        + e * b * g(u)
        - e * p.c
    )


class AnsatzConstraintReport(NamedTuple):
    """Max absolute residual of each algebraic/differential constraint.

    ``eq21_printed`` evaluates the mixed constraint with the sampled F'';
    ``eq21_reduced`` substitutes F'' -> k**2 F first (which turns the
    constraint into the defining identity of the wavenumber).  Both are
    reported because the printed form mixes terms of inconsistent order;
    neither reading is privileged here.
    """

    eq19: float
    eq20: float
    eq21_printed: float
    eq21_reduced: float
    eq22: float

    def to_dict(self) -> dict:
        return dict(self._asdict())


@np.errstate(over="ignore", invalid="ignore")
def check_ansatz_constraints(
    p: Params, A: float, B: float, samples: FSamples
) -> AnsatzConstraintReport:
    """Evaluate the four constraint expressions over the F samples.

    At the solved branch A = -eps beta / 3, B = 0 the first constraint
    factors as -F**3 A**3 (eps beta + 3A) and vanishes, the two B-carrying
    constraints vanish identically, and the differential constraint reduces
    to F'' = k**2 F.  The maxima are folded a block of samples at a time
    (``core._row_blocks``).  A residual that overflows float64 raises
    OutOfDomain.
    """
    if A == 0.0:
        raise SingularParameter("A = 0 degenerates the constraint system")
    e, b, D = p.epsilon, p.beta, p.D
    # float64 powers round as Python's do but overflow to inf instead of raising
    A, B = np.float64(A), np.float64(B)
    F = np.asarray(samples.F).ravel()
    F2 = np.asarray(samples.F2).ravel()
    k2 = nonclassical_k_squared(p)

    def eq21(f, f2):
        return (
            3.0 * e * b * D * f2 * A**3
            + 3.0 * D * f2 * A**4
            - 3.0 * e * b * f * A**4
            - 3.0 * A**5 * f
            + 3.0 * e * b * f * A**3
            - 3.0 * e * b * f * B**2 * A
            + 3.0 * f * A**4
            - 3.0 * e * f * A**3
            - 3.0 * f * B**2 * A**2
        )

    def residuals(f, f2):
        # eq19, eq20, eq21 printed and reduced, each made once the last is folded
        yield -e * b * f**3 * A**3 - 3.0 * f**3 * A**4
        yield 3.0 * e * b * f**2 * B * A**2 + 6.0 * f**2 * B * A**3
        yield eq21(f, f2)
        yield eq21(f, k2 * f)

    # a sample's F and F'' are four float64 values; np.max keeps a nan
    peaks = [0.0] * 4
    for block in _row_blocks(F.size, 4):
        for i, eq in enumerate(residuals(F[block], F2[block])):
            peaks[i] = float(np.max(np.abs(eq), initial=peaks[i]))
    eq22 = -3.0 * e * b * B * A**2 + e * b * B**3 + 3.0 * e * B * A**2
    report = AnsatzConstraintReport(*peaks, eq22=float(abs(eq22)))
    if not np.all(np.isfinite(report)):
        raise OutOfDomain(f"ansatz constraint residuals overflow float64 at A = {float(A)!r}, "
                          f"B = {float(B)!r} (max |F| = {float(np.max(np.abs(F))):.3e})")
    return report


@np.errstate(over="ignore", invalid="ignore")
def invariant_surface_check(
    fam: SolutionFamily, A: float, B: float, grid: Grid
) -> float:
    """Sup norm of the invariant-surface defect u_t - (A u + B) on the grid."""

    def defect(T, X):
        u, _ = fam.eval(T, X)
        u_t, _, _, _ = fam.eval_derivs(T, X)
        return (np.abs(u_t - (A * u + B)),)

    norms = _Norms(grid, 1)
    _scan(grid, fam.steady, defect, norms.peak)
    return norms.linf[0]
