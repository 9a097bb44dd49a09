"""Method-of-lines finite-difference solver, the numerical cross-check.

Space is discretized by the 2nd-order central Laplacian on the grid's nx
nodes; the grid's nt time nodes are the actual steps (dt = grid.dt).  Two
time integrators:

* ``rk4``: classic explicit Runge-Kutta; the step must satisfy
  dt <= cfl_safety * dx**2 / (2 D), checked up front.
* ``semi-implicit``: diffusion implicit (backward Euler on D u_xx),
  reaction explicit, first order in time.  The tridiagonal system
  (I - dt D L) is factored once per run since dt is constant.

Boundary handling:

* ``dirichlet-from-family``: boundary nodes of u and v are prescribed from
  the attached exact family at the stage/step time.  The exact solutions
  are unbounded-domain objects, so this removes boundary-induced error and
  the interior comparison isolates scheme error.
* ``periodic``: wrapped Laplacian, no prescribed nodes (the semi-implicit
  matrix becomes cyclic and is solved by a rank-one update of the
  tridiagonal factorization).

No boundary condition is canonical for this model; both choices here are
artifact decisions and reports label them as such.

Any |u| or |v| beyond 1e6 aborts the run with the offending step index.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .core import (
    BlowUp,
    CflViolation,
    ConfigError,
    Grid,
    InsufficientSignal,
    Params,
    g,
)
from .solutions import SolutionFamily

__all__ = [
    "SimConfig",
    "SimResult",
    "ConvergenceStudy",
    "run",
    "convergence_study",
    "write_frames",
    "read_frames",
    "FRAME_MAGIC",
]

SCHEMES = ("rk4", "semi-implicit")
BCS = ("dirichlet-from-family", "periodic")
BLOWUP_BOUND = 1e6
FRAME_MAGIC = b"FHN1"


@dataclass(frozen=True)
class SimConfig:
    """Grid, scheme, boundary choice and the explicit-step safety factor."""

    grid: Grid
    scheme: str = "rk4"
    bc: str = "dirichlet-from-family"
    cfl_safety: float = 0.25

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ConfigError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if self.bc not in BCS:
            raise ConfigError(f"bc must be one of {BCS}, got {self.bc!r}")
        if not (0.0 < self.cfl_safety <= 1.0):
            raise ConfigError(f"cfl_safety must lie in (0, 1], got {self.cfl_safety!r}")

    def check_cfl(self, p: Params) -> None:
        """Reject an explicit run whose dt exceeds cfl * dx**2 / (2 D)."""
        if self.grid.nt < 2:
            raise ConfigError("simulation grid needs nt >= 2")
        if self.scheme != "rk4":
            return
        bound = self.cfl_safety * self.grid.dx**2 / (2.0 * p.D)
        if self.grid.dt > bound:
            raise CflViolation(
                f"dt = {self.grid.dt:.6e} exceeds the explicit bound "
                f"{bound:.6e} (cfl_safety = {self.cfl_safety})"
            )


class _Tridiag:
    """Prefactored Thomas solve for a constant tridiagonal matrix."""

    def __init__(self, lower: np.ndarray, diag: np.ndarray, upper: np.ndarray):
        n = len(diag)
        self.n = n
        self.lower = lower
        self.cp = np.empty(n)
        self.denom = np.empty(n)
        self.denom[0] = diag[0]
        self.cp[0] = upper[0] / diag[0]
        for i in range(1, n):
            self.denom[i] = diag[i] - lower[i] * self.cp[i - 1]
            self.cp[i] = upper[i] / self.denom[i] if i < n - 1 else 0.0

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        n = self.n
        y = np.empty(n)
        y[0] = rhs[0] / self.denom[0]
        for i in range(1, n):
            y[i] = (rhs[i] - self.lower[i] * y[i - 1]) / self.denom[i]
        for i in range(n - 2, -1, -1):
            y[i] -= self.cp[i] * y[i + 1]
        return y


class _CyclicTridiag:
    """Sherman-Morrison solve for the periodic (cyclic) variant."""

    def __init__(self, off: float, diag_val: float, n: int):
        gamma = -diag_val
        diag = np.full(n, diag_val)
        diag[0] -= gamma
        diag[-1] -= off * off / gamma
        lower = np.full(n, off)
        upper = np.full(n, off)
        self.core = _Tridiag(lower, diag, upper)
        u = np.zeros(n)
        u[0] = gamma
        u[-1] = off
        self.u = u
        self.vq = None  # lazy: q = A^-1 u
        self.off = off
        self.gamma = gamma

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        if self.vq is None:
            self.vq = self.core.solve(self.u)
        y = self.core.solve(rhs)
        # v = (1, 0, ..., 0, off/gamma)
        vy = y[0] + self.off / self.gamma * y[-1]
        vq = self.vq[0] + self.off / self.gamma * self.vq[-1]
        return y - self.vq * (vy / (1.0 + vq))


class _Stepper:
    """Bound integrator: parameters, config and the boundary-data family."""

    def __init__(self, p: Params, cfg: SimConfig, family: SolutionFamily | None):
        cfg.check_cfl(p)
        if cfg.bc == "dirichlet-from-family" and family is None:
            raise ConfigError("dirichlet-from-family boundaries need a family")
        self.p = p
        self.cfg = cfg
        self.family = family
        self.xs = cfg.grid.xs()
        self.dx = cfg.grid.dx
        self.dt = cfg.grid.dt
        self._solver = None
        if cfg.scheme == "semi-implicit":
            self._solver = self._factor_implicit()

    def _factor_implicit(self):
        n = self.cfg.grid.nx
        r = self.dt * self.p.D / self.dx**2
        if self.cfg.bc == "periodic":
            return _CyclicTridiag(off=-r, diag_val=1.0 + 2.0 * r, n=n)
        lower = np.full(n, -r)
        upper = np.full(n, -r)
        diag = np.full(n, 1.0 + 2.0 * r)
        # prescribed boundary rows
        diag[0] = diag[-1] = 1.0
        upper[0] = lower[-1] = 0.0
        lower[0] = upper[-1] = 0.0
        return _Tridiag(lower, diag, upper)

    def _boundary(self, arrs: tuple[np.ndarray, np.ndarray], t: float):
        if self.cfg.bc != "dirichlet-from-family":
            return
        u, v = arrs
        for idx in (0, -1):
            ub, vb = self.family.eval(t, self.xs[idx])
            u[idx] = float(ub)
            v[idx] = float(vb)

    def _laplacian(self, u: np.ndarray) -> np.ndarray:
        lap = np.empty_like(u)
        lap[1:-1] = (u[:-2] - 2.0 * u[1:-1] + u[2:]) / self.dx**2
        if self.cfg.bc == "periodic":
            lap[0] = (u[-1] - 2.0 * u[0] + u[1]) / self.dx**2
            lap[-1] = (u[-2] - 2.0 * u[-1] + u[0]) / self.dx**2
        else:
            lap[0] = lap[-1] = 0.0
        return lap

    def _rhs(self, t: float, u: np.ndarray, v: np.ndarray):
        u = u.copy()
        v = v.copy()
        self._boundary((u, v), t)
        p = self.p
        du = p.D * self._laplacian(u) - v + g(u)
        dv = p.epsilon * (-p.beta * v + p.c + u)
        if self.cfg.bc == "dirichlet-from-family":
            du[0] = du[-1] = 0.0
            dv[0] = dv[-1] = 0.0
        return du, dv

    def advance(self, u: np.ndarray, v: np.ndarray, t: float):
        """One step from t to t + dt; returns new (u, v)."""
        dt = self.dt
        if self.cfg.scheme == "rk4":
            k1u, k1v = self._rhs(t, u, v)
            k2u, k2v = self._rhs(t + dt / 2, u + dt / 2 * k1u, v + dt / 2 * k1v)
            k3u, k3v = self._rhs(t + dt / 2, u + dt / 2 * k2u, v + dt / 2 * k2v)
            k4u, k4v = self._rhs(t + dt, u + dt * k3u, v + dt * k3v)
            un = u + dt / 6 * (k1u + 2 * k2u + 2 * k3u + k4u)
            vn = v + dt / 6 * (k1v + 2 * k2v + 2 * k3v + k4v)
        else:
            p = self.p
            rhs_u = u + dt * (-v + g(u))
            vn = v + dt * p.epsilon * (-p.beta * v + p.c + u)
            if self.cfg.bc == "dirichlet-from-family":
                ub0, _ = self.family.eval(t + dt, self.xs[0])
                ub1, _ = self.family.eval(t + dt, self.xs[-1])
                rhs_u[0] = float(ub0)
                rhs_u[-1] = float(ub1)
            un = self._solver.solve(rhs_u)
        self._boundary((un, vn), t + dt)
        return un, vn


def _check_blowup(u: np.ndarray, v: np.ndarray, step_index: int, t: float):
    mag = max(float(np.max(np.abs(u))), float(np.max(np.abs(v))))
    if not np.isfinite(mag) or mag > BLOWUP_BOUND:
        raise BlowUp(step=step_index, t=t, magnitude=mag)


@dataclass(frozen=True)
class SimResult:
    """Trajectory plus per-time error norms against the exact family.

    errors columns: linf_u, l2_u, linf_v, l2_v where l2 is the
    grid-function norm sqrt(dx * sum(err**2)).
    """

    ts: np.ndarray
    xs: np.ndarray
    us: np.ndarray  # (nt, nx)
    vs: np.ndarray
    errors: np.ndarray  # (nt, 4)

    def max_error_u(self) -> float:
        return float(np.max(self.errors[:, 0]))

    def max_error_v(self) -> float:
        return float(np.max(self.errors[:, 2]))


def run(ic_family: SolutionFamily, p: Params, cfg: SimConfig) -> SimResult:
    """Integrate from the family's t_min state to t_max, tracking errors."""
    stepper = _Stepper(p, cfg, ic_family)
    grid = cfg.grid
    ts, xs = grid.ts(), grid.xs()
    dx = grid.dx
    u, v = ic_family.eval(ts[0], xs)
    u = np.array(u, dtype=float)
    v = np.array(v, dtype=float)

    us = np.empty((grid.nt, grid.nx))
    vs = np.empty((grid.nt, grid.nx))
    errors = np.empty((grid.nt, 4))

    def record(i, u, v):
        ue, ve = ic_family.eval(ts[i], xs)
        eu = u - ue
        ev = v - ve
        us[i] = u
        vs[i] = v
        errors[i] = (
            float(np.max(np.abs(eu))),
            float(np.sqrt(dx * np.sum(eu * eu))),
            float(np.max(np.abs(ev))),
            float(np.sqrt(dx * np.sum(ev * ev))),
        )

    record(0, u, v)
    for n in range(grid.nt - 1):
        u, v = stepper.advance(u, v, float(ts[n]))
        _check_blowup(u, v, n + 1, float(ts[n + 1]))
        record(n + 1, u, v)
    return SimResult(ts=ts, xs=xs, us=us, vs=vs, errors=errors)


@dataclass(frozen=True)
class ConvergenceStudy:
    """Grid-refinement levels and the observed spatial order of accuracy."""

    levels: tuple[dict, ...]  # nx, nt, dx, dt, err (final-time Linf of u)
    orders: tuple[float, ...]
    order_mean: float


def convergence_study(
    ic_family: SolutionFamily,
    p: Params,
    base_grid: Grid,
    refinements: int,
    scheme: str = "rk4",
    bc: str = "dirichlet-from-family",
    cfl_safety: float = 0.25,
) -> ConvergenceStudy:
    """Halve dx (and quarter dt, so dt stays proportional to dx**2) the
    given number of times; observed order = log2 of successive final-time
    Linf(u) error ratios.  Errors at the floating-point floor raise
    InsufficientSignal."""
    if refinements < 2:
        raise ConfigError("need at least 2 refinements to observe an order")
    levels = []
    errs = []
    for level in range(refinements + 1):
        nx = (base_grid.nx - 1) * 2**level + 1
        nt = (base_grid.nt - 1) * 4**level + 1
        grid = Grid(
            x_min=base_grid.x_min,
            x_max=base_grid.x_max,
            nx=nx,
            t_min=base_grid.t_min,
            t_max=base_grid.t_max,
            nt=nt,
        )
        cfg = SimConfig(grid=grid, scheme=scheme, bc=bc, cfl_safety=cfl_safety)
        result = run(ic_family, p, cfg)
        err = float(result.errors[-1, 0])
        if err < 1e-12:
            raise InsufficientSignal(
                f"final-time error {err:.3e} at nx={nx} is at the float floor"
            )
        levels.append({"nx": nx, "nt": nt, "dx": grid.dx, "dt": grid.dt, "err": err})
        errs.append(err)
    orders = tuple(
        float(np.log2(errs[i] / errs[i + 1])) for i in range(len(errs) - 1)
    )
    return ConvergenceStudy(
        levels=tuple(levels), orders=orders, order_mean=float(np.mean(orders))
    )


def write_frames(path, ts, xs, us, vs) -> None:
    """Binary frame stream: magic "FHN1", <u4 nx, <u4 nframes, xs as <f8,
    then per frame t, u[nx], v[nx] as <f8 (all little-endian)."""
    ts = np.asarray(ts, dtype="<f8")
    xs = np.asarray(xs, dtype="<f8")
    us = np.asarray(us, dtype="<f8")
    vs = np.asarray(vs, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(FRAME_MAGIC)
        fh.write(struct.pack("<II", len(xs), len(ts)))
        fh.write(xs.tobytes())
        for i in range(len(ts)):
            fh.write(struct.pack("<d", float(ts[i])))
            fh.write(us[i].astype("<f8").tobytes())
            fh.write(vs[i].astype("<f8").tobytes())


def read_frames(path):
    """Inverse of write_frames; returns (ts, xs, us, vs)."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != FRAME_MAGIC:
            raise ConfigError(f"bad frame magic {magic!r}")
        nx, nt = struct.unpack("<II", fh.read(8))
        xs = np.frombuffer(fh.read(8 * nx), dtype="<f8")
        ts = np.empty(nt)
        us = np.empty((nt, nx))
        vs = np.empty((nt, nx))
        for i in range(nt):
            (ts[i],) = struct.unpack("<d", fh.read(8))
            us[i] = np.frombuffer(fh.read(8 * nx), dtype="<f8")
            vs[i] = np.frombuffer(fh.read(8 * nx), dtype="<f8")
    return ts, xs, us, vs
