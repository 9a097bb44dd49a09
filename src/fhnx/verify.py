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

Grid rows may be processed by a small thread pool (capped by FHNX_THREADS);
chunks are reassembled in index order before any reduction, so results are
bytewise independent of the worker count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .core import FhnxError, Grid, Params, SingularParameter, g, worker_count
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

# 5-point central stencil weights (4th order)
_D1 = (1.0, -8.0, 0.0, 8.0, -1.0)  # / (12 h)
_D2 = (-1.0, 16.0, -30.0, 16.0, -1.0)  # / (12 h**2)
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


def _chunk_rows(nt: int, workers: int) -> list[tuple[int, int]]:
    workers = min(workers, nt)
    bounds = np.linspace(0, nt, workers + 1).astype(int)
    return [(int(bounds[i]), int(bounds[i + 1])) for i in range(workers) if bounds[i] < bounds[i + 1]]


def _eval_chunked(compute: Callable[[np.ndarray], tuple], ts: np.ndarray) -> list[tuple]:
    """Apply ``compute`` to row chunks, preserving chunk order."""
    workers = worker_count()
    chunks = _chunk_rows(len(ts), workers)
    if len(chunks) <= 1:
        return [compute(ts)]
    with ThreadPoolExecutor(max_workers=len(chunks)) as pool:
        futures = [pool.submit(compute, ts[i0:i1]) for i0, i1 in chunks]
        return [f.result() for f in futures]


def _norms(r: np.ndarray) -> tuple[float, float]:
    return float(np.max(np.abs(r))), float(np.sqrt(np.sum(r * r)))


def _worst_point(ts, xs, r_u, r_v) -> tuple[float, float]:
    mag = np.maximum(np.abs(r_u), np.abs(r_v))
    it, ix = np.unravel_index(int(np.argmax(mag)), mag.shape)
    return (float(ts[it]), float(xs[ix]))


def _fd_steps(grid: Grid) -> tuple[float, float]:
    # oversample the report grid 4x; steady grids get a nominal time step
    hx = grid.dx / 4.0
    ht = grid.dt / 4.0 if grid.dt > 0.0 else 1e-3
    return hx, ht


def residual_system(
    fam: SolutionFamily, p: Params, grid: Grid, method: str = "analytic"
) -> ResidualReport:
    """Residual norms of both model equations for a family over a grid."""
    method = _check_method(method)
    ts, xs = grid.ts(), grid.xs()

    if method == "analytic":

        def compute(trows: np.ndarray):
            T, X = np.meshgrid(trows, xs, indexing="ij")
            u, v = fam.eval(T, X)
            u_t, _, u_xx, v_t = fam.eval_derivs(T, X)
            r_u = u_t - p.D * u_xx + v - g(u)
            r_v = v_t - p.epsilon * (-p.beta * v + p.c + u)
            return r_u, r_v

    else:
        hx, ht = _fd_steps(grid)

        def compute(trows: np.ndarray):
            T, X = np.meshgrid(trows, xs, indexing="ij")
            ut_shift = [fam.eval(T + i * ht, X) for i in _SHIFTS]
            ux_shift = [fam.eval(T, X + j * hx)[0] for j in _SHIFTS]
            u, v = ut_shift[2]
            u_t = sum(w * ut_shift[i][0] for i, w in enumerate(_D1) if w) / (12.0 * ht)
            v_t = sum(w * ut_shift[i][1] for i, w in enumerate(_D1) if w) / (12.0 * ht)
            u_xx = sum(w * ux_shift[j] for j, w in enumerate(_D2) if w) / (12.0 * hx**2)
            r_u = u_t - p.D * u_xx + v - g(u)
            r_v = v_t - p.epsilon * (-p.beta * v + p.c + u)
            return r_u, r_v

    parts = _eval_chunked(compute, ts)
    r_u = np.vstack([part[0] for part in parts])
    r_v = np.vstack([part[1] for part in parts])

    linf_u, l2_u = _norms(r_u)
    linf_v, l2_v = _norms(r_v)
    return ResidualReport(
        linf_u=linf_u,
        l2_u=l2_u,
        linf_v=linf_v,
        l2_v=l2_v,
        worst_point=_worst_point(ts, xs, r_u, r_v),
        method=method,
        sample_count=r_u.size,
        notes=fam.notes,
    )


def residual_third_order(
    fam: SolutionFamily, p: Params, grid: Grid, method: str = "analytic"
) -> ResidualReport:
    """Residual of the third-order reduction in u (single equation).

    Any solution of the system satisfies it identically, so its norms are
    bounded by the system residual norms for catalog families.
    """
    method = _check_method(method)
    ts, xs = grid.ts(), grid.xs()

    if method == "analytic":

        def compute(trows: np.ndarray):
            T, X = np.meshgrid(trows, xs, indexing="ij")
            u, _ = fam.eval(T, X)
            u_t, _, u_xx, _ = fam.eval_derivs(T, X)
            u_tt, u_txx = fam.eval_second_time_derivs(T, X)
            return (_third_order_expr(p, u, u_t, u_xx, u_tt, u_txx),)

    else:
        hx, ht = _fd_steps(grid)

        def compute(trows: np.ndarray):
            T, X = np.meshgrid(trows, xs, indexing="ij")
            U = {
                (i, j): fam.eval(T + i * ht, X + j * hx)[0]
                for i in _SHIFTS
                for j in _SHIFTS
            }
            u = U[(0, 0)]
            u_t = sum(w * U[(i, 0)] for i, w in zip(_SHIFTS, _D1) if w) / (12.0 * ht)
            u_tt = sum(w * U[(i, 0)] for i, w in zip(_SHIFTS, _D2) if w) / (12.0 * ht**2)
            u_xx = sum(w * U[(0, j)] for j, w in zip(_SHIFTS, _D2) if w) / (12.0 * hx**2)
            uxx_at = [
                sum(w * U[(i, j)] for j, w in zip(_SHIFTS, _D2) if w) / (12.0 * hx**2)
                for i in _SHIFTS
            ]
            u_txx = sum(w * uxx_at[n] for n, w in enumerate(_D1) if w) / (12.0 * ht)
            return (_third_order_expr(p, u, u_t, u_xx, u_tt, u_txx),)

    parts = _eval_chunked(compute, ts)
    r = np.vstack([part[0] for part in parts])
    linf, l2 = _norms(r)
    zero = np.zeros_like(r)
    return ResidualReport(
        linf_u=linf,
        l2_u=l2,
        linf_v=0.0,
        l2_v=0.0,
        worst_point=_worst_point(ts, xs, r, zero),
        method=method,
        sample_count=r.size,
        notes=fam.notes + ("single third-order equation in u; v slots unused",),
    )


def _third_order_expr(p: Params, u, u_t, u_xx, u_tt, u_txx):
    e, b = p.epsilon, p.beta
    return (
        p.D * u_txx
        - u_tt
        + e * b * p.D * u_xx
        - e * b * u_t
        - e * u
        + u_t * (1.0 - u**2)
        + e * b * (u - u**3 / 3.0)
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


def check_ansatz_constraints(
    p: Params, A: float, B: float, samples: FSamples
) -> AnsatzConstraintReport:
    """Evaluate the four constraint expressions over the F samples.

    At the solved branch A = -eps beta / 3, B = 0 the first constraint
    factors as -F**3 A**3 (eps beta + 3A) and vanishes, the two B-carrying
    constraints vanish identically, and the differential constraint reduces
    to F'' = k**2 F.
    """
    if A == 0.0:
        raise SingularParameter("A = 0 degenerates the constraint system")
    e, b, D = p.epsilon, p.beta, p.D
    F = np.asarray(samples.F)
    F2 = np.asarray(samples.F2)

    eq19 = -e * b * F**3 * A**3 - 3.0 * F**3 * A**4
    eq20 = 3.0 * e * b * F**2 * B * A**2 + 6.0 * F**2 * B * A**3
    eq22 = -3.0 * e * b * B * A**2 + e * b * B**3 + 3.0 * e * B * A**2

    def eq21(f2):
        return (
            3.0 * e * b * D * f2 * A**3
            + 3.0 * D * f2 * A**4
            - 3.0 * e * b * F * A**4
            - 3.0 * A**5 * F
            + 3.0 * e * b * F * A**3
            - 3.0 * e * b * F * B**2 * A
            + 3.0 * F * A**4
            - 3.0 * e * F * A**3
            - 3.0 * F * B**2 * A**2
        )

    k2 = nonclassical_k_squared(p)
    return AnsatzConstraintReport(
        eq19=float(np.max(np.abs(eq19))),
        eq20=float(np.max(np.abs(eq20))),
        eq21_printed=float(np.max(np.abs(eq21(F2)))),
        eq21_reduced=float(np.max(np.abs(eq21(k2 * F)))),
        eq22=float(abs(eq22)),
    )


def invariant_surface_check(
    fam: SolutionFamily, A: float, B: float, grid: Grid
) -> float:
    """Sup norm of the invariant-surface defect u_t - (A u + B) on the grid."""
    T, X = grid.meshes()
    u, _ = fam.eval(T, X)
    u_t, _, _, _ = fam.eval_derivs(T, X)
    return float(np.max(np.abs(u_t - (A * u + B))))
