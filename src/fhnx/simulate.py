"""Method-of-lines finite-difference solver, the numerical cross-check.

Space is discretized by the 2nd-order central Laplacian on the grid's nx
nodes; the grid's nt time nodes are the actual steps (dt = grid.dt).  Two
time integrators:

* ``rk4``: classic explicit Runge-Kutta; the step must satisfy
  dt <= cfl_safety * dx**2 / (2 D), checked up front.
* ``semi-implicit``: diffusion implicit (backward Euler on D u_xx),
  reaction explicit, first order in time.  The constant matrix
  I - r L (r = dt D / dx**2) is diagonalised exactly by Fourier modes, so
  each step is one real FFT pair and a division by the eigenvalues
  1 + 4 r sin**2(pi k / n) (Press et al., Numerical Recipes, 3rd ed.,
  section 20.4).

Boundary handling:

* ``dirichlet-from-family``: boundary nodes of u and v are prescribed from
  the attached exact family at the stage/step time t_n + (0, dt/2, dt).
  These boundary traces are evaluated once per run, one vectorized family
  call per stage offset.  The exact solutions are unbounded-domain
  objects, so this removes boundary-induced error and the interior
  comparison isolates scheme error.  The semi-implicit interior system
  (prescribed ends moved to the right-hand side) is solved by a DST-I,
  taken as the FFT of its odd extension of length 2 (nx - 1).
* ``periodic``: wrapped Laplacian, no prescribed nodes; the semi-implicit
  matrix is circulant and is solved by an rfft of length nx.

No boundary condition is canonical for this model; both choices here are
artifact decisions and reports label them as such.

Any |u| or |v| beyond 1e6, or not finite, aborts the run with the
offending step index; the initial state is checked as step 0.
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


class _Stepper:
    """Bound integrator: parameters, config, boundary traces and the
    eigenvalues of the semi-implicit matrix; no step calls the family."""

    def __init__(self, p: Params, cfg: SimConfig, family: SolutionFamily | None):
        cfg.check_cfl(p)
        if cfg.bc == "dirichlet-from-family" and family is None:
            raise ConfigError("dirichlet-from-family boundaries need a family")
        self.p = p
        self.cfg = cfg
        grid = cfg.grid
        self.dx = grid.dx
        self.dt = grid.dt
        self.r = self.dt * p.D / self.dx**2
        self._traces = None
        if cfg.bc == "dirichlet-from-family":
            # t_n + offset, not ts[n + 1]: the stage times of the step lattice
            t_n = grid.ts()[:-1, None]
            ends = grid.xs()[[0, -1]]
            self._traces = [
                family.eval(t_n + off, ends) for off in (0.0, self.dt / 2, self.dt)
            ]
        if cfg.scheme == "semi-implicit":
            # I - r L is diagonalised by the DFT of length n: circulant when
            # periodic, the odd extension (a DST-I) of the interior otherwise
            n = grid.nx if cfg.bc == "periodic" else 2 * (grid.nx - 1)
            k = np.arange(n // 2 + 1)
            self._eig = 1.0 + 4.0 * self.r * np.sin(np.pi * k / n) ** 2

    def _boundary(self, u: np.ndarray, v: np.ndarray, stage: int, n: int):
        if self._traces is None:
            return
        bu, bv = self._traces[stage]
        u[0], u[-1] = bu[n]
        v[0], v[-1] = bv[n]

    def _solve(self, b: np.ndarray) -> np.ndarray:
        """Solve (I - r L) u = b; Dirichlet end rows keep b's values."""
        if self.cfg.bc == "periodic":
            return np.fft.irfft(np.fft.rfft(b) / self._eig, b.size)
        m = b.size - 2
        z = np.zeros(2 * m + 2)
        z[1:m + 1] = b[1:-1]
        z[1] += self.r * b[0]
        z[m] += self.r * b[-1]
        z[m + 2:] = -z[m:0:-1]
        u = b.copy()
        u[1:-1] = np.fft.irfft(np.fft.rfft(z) / self._eig, z.size)[1:m + 1]
        return u

    def _laplacian(self, u: np.ndarray) -> np.ndarray:
        lap = np.empty_like(u)
        lap[1:-1] = (u[:-2] - 2.0 * u[1:-1] + u[2:]) / self.dx**2
        if self.cfg.bc == "periodic":
            lap[0] = (u[-1] - 2.0 * u[0] + u[1]) / self.dx**2
            lap[-1] = (u[-2] - 2.0 * u[-1] + u[0]) / self.dx**2
        else:
            lap[0] = lap[-1] = 0.0
        return lap

    def _rhs(self, stage: int, n: int, u: np.ndarray, v: np.ndarray):
        u = u.copy()
        v = v.copy()
        self._boundary(u, v, stage, n)
        p = self.p
        du = p.D * self._laplacian(u) - v + g(u)
        dv = p.epsilon * (-p.beta * v + p.c + u)
        if self.cfg.bc == "dirichlet-from-family":
            du[0] = du[-1] = 0.0
            dv[0] = dv[-1] = 0.0
        return du, dv

    def advance(self, u: np.ndarray, v: np.ndarray, n: int):
        """Step n, from ts[n] to ts[n] + dt; returns new (u, v)."""
        dt = self.dt
        if self.cfg.scheme == "rk4":
            k1u, k1v = self._rhs(0, n, u, v)
            k2u, k2v = self._rhs(1, n, u + dt / 2 * k1u, v + dt / 2 * k1v)
            k3u, k3v = self._rhs(1, n, u + dt / 2 * k2u, v + dt / 2 * k2v)
            k4u, k4v = self._rhs(2, n, u + dt * k3u, v + dt * k3v)
            un = u + dt / 6 * (k1u + 2 * k2u + 2 * k3u + k4u)
            vn = v + dt / 6 * (k1v + 2 * k2v + 2 * k3v + k4v)
            self._boundary(un, vn, 2, n)
            return un, vn
        p = self.p
        rhs_u = u + dt * (-v + g(u))
        vn = v + dt * p.epsilon * (-p.beta * v + p.c + u)
        # the solve keeps the prescribed Dirichlet ends of rhs_u
        self._boundary(rhs_u, vn, 2, n)
        return self._solve(rhs_u), vn


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
    # _check_blowup turns every overflow or NaN into BlowUp, step 0 included
    with np.errstate(over="ignore", invalid="ignore"):
        stepper = _Stepper(p, cfg, ic_family)
        grid = cfg.grid
        ts, xs = grid.ts(), grid.xs()
        dx = grid.dx
        u, v = ic_family.eval(ts[0], xs)
        u = np.array(u, dtype=float)
        v = np.array(v, dtype=float)
        _check_blowup(u, v, 0, float(ts[0]))

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
            u, v = stepper.advance(u, v, n)
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
