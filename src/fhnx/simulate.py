"""Method-of-lines finite-difference solver, the numerical cross-check.

Space is discretized by the 2nd-order central Laplacian on the grid's nx
nodes; the grid's nt time nodes are the actual steps (dt = grid.dt).  The
explicit right-hand side takes D u_xx as one three-tap correlation of the
wrapped state, its stencil (a, -2a, a) with D / dx**2 = a folded into the
taps.  Two time integrators:

* ``rk4``: classic explicit Runge-Kutta; the step must satisfy
  dt <= cfl_safety * dx**2 / (2 D), checked up front.
* ``semi-implicit``: diffusion implicit (backward Euler on D u_xx),
  reaction explicit, first order in time.  The constant matrix
  I - r L (r = dt D / dx**2), or the ring it is solved on, is a circulant
  of some length n, diagonalised exactly by Fourier modes with
  eigenvalues 1 + 4 r sin**2(pi k / n) (Press et al., Numerical Recipes,
  3rd ed., section 20.4).  Each step is one real FFT pair and a product
  with the inverse's spectrum.  When n has a prime factor above 11,
  numpy's pocketfft would take a slow generic pass or fall back to
  Bluestein's algorithm, so that spectrum is taken of the inverse's first
  column zero-padded to a length m >= 2n - 1 with no prime factor above
  11, and the product's wrapped tail is folded back to n.

Boundary handling:

* ``dirichlet-from-family``: boundary nodes of u and v are prescribed from
  the attached exact family at the step's midpoint ts[n] + dt/2 and at the
  grid's next time node ts[n + 1]; rk4's first stage reads the ends the
  previous step wrote at ts[n].  These traces are evaluated for a chunk of
  steps at a time, two samples per step (``core._row_blocks``), one
  vectorized family call per stage time the scheme reads (rk4 two,
  semi-implicit one).  The stepper writes them in one place: into each
  later rk4 stage state before its right-hand side, and into the new state
  of every step.  The rates computed at the ends are overwritten unused,
  so the right-hand side uses the wrapped end stencil under both
  conditions.  The exact solutions are unbounded-domain objects, so this
  removes boundary-induced error and the interior comparison isolates
  scheme error.  The semi-implicit interior system (prescribed ends moved
  to the right-hand side) is solved on a ring of n = nx - 1 nodes whose
  node 0, standing for both ends, is pinned to zero: the ring's circulant
  rows 1..n-1 are the interior rows, and a source mu e_0 chosen so that
  u_0 = 0 is a one-row Sherman-Morrison update (Sherman & Morrison, Ann.
  Math. Statist. 1950), the capacitance-matrix method of Buzbee, Dorr,
  George & Golub (SIAM J. Numer. Anal. 1971).  The ring's constant mode
  (eigenvalue 1) is split off and the update restores it in closed form,
  so no cancellation grows with r.
* ``periodic``: wrapped Laplacian, no prescribed nodes; the semi-implicit
  matrix is circulant of length n = nx.

No boundary condition is canonical for this model; both choices here are
artifact decisions and reports label them as such.

Any |u| or |v| beyond 1e6, or not finite, aborts the run with the
offending step index; the initial state is checked as step 0.

The time loop only steps.  ``run`` pulls the states a block of rows at a
time (``core._row_blocks``), measures each block's errors as soon as it is
full and hands the block to an optional callback: the CLI appends it to
``trajectory.csv`` and ``frames.bin``.  Only a run asked for its
trajectory keeps the (nt, nx) arrays; otherwise nothing but ts and the
(nt, 4) error table grow with nt.  ``convergence_study`` keeps only final
states.  The error pass works in the (u, v) arrays of its one family call
and the semi-implicit step builds its right-hand sides in place: with no
other block-sized temporaries, glibc keeps the heap top from block to
block instead of trimming it and faulting its pages back in.
"""

from __future__ import annotations

import os
import struct
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    BlowUp,
    CflViolation,
    ConfigError,
    Grid,
    InsufficientSignal,
    Params,
    _row_blocks,
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


def _fast_len(n: int) -> int:
    """The least length >= n with no prime factor above 11: pocketfft's
    complex good size, the length its Bluestein fallback pads to (numpy's
    real transforms have dedicated passes only for 2, 3, 4 and 5)."""
    while True:
        k = n
        for p in (2, 3, 5, 7, 11):
            while k % p == 0:
                k //= p
        if k == 1:
            return n
        n += 1


class _Stepper:
    """Bound integrator: parameters, config, the boundary traces of one
    chunk of steps (``trace``) and the spectrum ``_kernel`` of the
    semi-implicit circulant's inverse at the transform length ``_m``; no
    step calls the family.  Under Dirichlet ends the circulant is the ring
    of nx - 1 nodes, whose node 0 is pinned to zero (Sherman & Morrison
    1950; Buzbee, Dorr, George & Golub 1971): its inverse drops the
    constant mode, and the inverse's first column ``_col`` and capacitance
    ``_cap`` restore it."""

    def __init__(self, p: Params, cfg: SimConfig, family: SolutionFamily):
        cfg.check_cfl(p)
        self.p = p
        self.cfg = cfg
        grid = cfg.grid
        self.dx = grid.dx
        self.dt = grid.dt
        self.r = self.dt * p.D / self.dx**2
        # D u_xx as one three-tap correlation of the wrapped state
        a = p.D / self.dx**2
        self._stencil = np.array([a, -2.0 * a, a])
        self.family = family
        self._traces = {}
        if cfg.scheme == "semi-implicit":
            # I - r L is diagonalised by the DFT of length n: circulant when
            # periodic, the ring of the interior and one pinned node otherwise
            n = grid.nx if cfg.bc == "periodic" else grid.nx - 1
            if not np.isfinite(4.0 * self.r):
                raise ConfigError(
                    f"semi-implicit eigenvalues 1 + 4 r overflow float64 at r = dt D / dx**2"
                    f" = {self.r!r} (dt = {self.dt!r}, D = {p.D!r}, dx = {self.dx!r})"
                )
            k = np.arange(n // 2 + 1)
            inv = 1.0 / (1.0 + 4.0 * self.r * np.sin(np.pi * k / n) ** 2)
            if cfg.bc != "periodic":
                inv[0] = 0.0  # drop the ring's constant mode; _solve adds it back
            self._col = np.fft.irfft(inv, n)
            self._cap = 1.0 + n * self._col[0]  # > 1; read only by the Dirichlet ring
            # n where it is fast, else a fast length that holds _col * z unwrapped
            self._m = n if _fast_len(n) == n else _fast_len(2 * n - 1)
            self._kernel = inv if self._m == n else np.fft.rfft(self._col, self._m)

    def trace(self, ts: np.ndarray, steps: slice) -> None:
        """Evaluate the Dirichlet boundary values of the given steps, one
        vectorized family call per stage time the scheme reads; ts holds
        every time node.  Under periodic conditions there are none."""
        if self.cfg.bc != "dirichlet-from-family":
            return
        # stage 1 sits at the step's midpoint, stage 2 at the next time node;
        # semi-implicit reads only stage 2
        t_n, ends = ts[steps, None], self.cfg.grid.xs()[[0, -1]]
        times = {1: t_n + self.dt / 2, 2: ts[steps.start + 1:steps.stop + 1, None]}
        stages = (1, 2) if self.cfg.scheme == "rk4" else (2,)
        self._first = steps.start
        self._traces = {s: self.family.eval(times[s], ends) for s in stages}

    def _boundary(self, u: np.ndarray, v: np.ndarray, stage: int, n: int):
        tr = self._traces.get(stage)
        if tr is None:
            return
        # both ends of each field in one write; the grid has nx >= 3
        u[::u.size - 1] = tr[0][n - self._first]
        v[::v.size - 1] = tr[1][n - self._first]

    def _circ(self, z: np.ndarray) -> tuple[np.ndarray, float]:
        """Solve the circulant system of length n = z.size: z's transform at
        length m times the inverse's spectrum, m > n only at a slow n, where
        the spectrum is the zero-padded first column's and the wrapped tail
        y[n:] folds back onto the head.  Also returns the sum of z."""
        n, m = z.size, self._m
        zf = np.fft.rfft(z, m)
        y = np.fft.irfft(zf * self._kernel, m)
        y[:m - n] += y[n:]  # empty when m == n
        return y[:n], zf[0].real

    def _solve(self, b: np.ndarray) -> np.ndarray:
        """Solve (I - r L) u = b; Dirichlet end rows keep b's values, and
        the interior is written into b."""
        if self.cfg.bc == "periodic":
            return self._circ(b)[0]
        # the ring: node 0 stands for both ends, whose values move to the
        # right-hand side, and is pinned to 0 by a source mu e_0
        z = b[:-1].copy()
        z[0] = 0.0
        z[1] += self.r * b[0]
        z[-1] += self.r * b[-1]
        # with the constant mode split off, the ring's inverse is
        # y + (s/n) 1 on z and _col + 1/n on e_0; u_0 = 0 fixes mu = -lam
        y, s = self._circ(z)
        col, cap = self._col, self._cap
        lam = (s + z.size * y[0]) / cap
        alpha = (s * col[0] - y[0]) / cap  # (s - lam) / n without the cancellation
        y -= lam * col
        np.add(y[1:], alpha, out=b[1:-1])
        return b

    def _rhs(self, stage: int, n: int, u: np.ndarray, v: np.ndarray):
        """(u_t, v_t) after writing the stage's prescribed ends into u and v."""
        self._boundary(u, v, stage, n)
        p = self.p
        du = np.correlate(np.concatenate((u[-1:], u, u[:1])), self._stencil, "valid")
        du -= v
        du += g(u)
        dv = p.epsilon * (-p.beta * v + p.c + u)
        return du, dv

    def advance(self, u: np.ndarray, v: np.ndarray, n: int):
        """Step n, from ts[n] to ts[n + 1]; returns new (u, v)."""
        dt = self.dt
        if self.cfg.scheme == "rk4":
            # stage 0 reads the state's own ends, written at ts[n]
            k1u, k1v = self._rhs(0, n, u, v)
            k2u, k2v = self._rhs(1, n, u + dt / 2 * k1u, v + dt / 2 * k1v)
            k3u, k3v = self._rhs(1, n, u + dt / 2 * k2u, v + dt / 2 * k2v)
            k4u, k4v = self._rhs(2, n, u + dt * k3u, v + dt * k3v)
            un = u + dt / 6 * (k1u + 2 * k2u + 2 * k3u + k4u)
            vn = v + dt / 6 * (k1v + 2 * k2v + 2 * k3v + k4v)
            self._boundary(un, vn, 2, n)
            return un, vn
        p = self.p
        # u + dt (g(u) - v) and v + dt eps (-beta v + c + u), built in
        # place in the same operation order; g(u) - v is -v + g(u) exactly
        rhs_u = g(u)
        rhs_u -= v
        rhs_u *= dt
        rhs_u += u
        vn = v * -p.beta
        vn += p.c
        vn += u
        vn *= dt * p.epsilon
        vn += v
        # the solve keeps the prescribed Dirichlet ends of rhs_u
        self._boundary(rhs_u, vn, 2, n)
        return self._solve(rhs_u), vn


def _check_blowup(u: np.ndarray, v: np.ndarray, step_index: int, t: float):
    # a NaN fails both comparisons; np.maximum, unlike max, keeps it
    if not (np.abs(u).max() <= BLOWUP_BOUND and np.abs(v).max() <= BLOWUP_BOUND):
        mag = float(np.maximum(np.abs(u).max(), np.abs(v).max()))
        raise BlowUp(step=step_index, t=t, magnitude=mag)


@dataclass(frozen=True)
class SimResult:
    """Trajectory plus per-time error norms against the exact family.

    errors columns: linf_u, l2_u, linf_v, l2_v where l2 is the
    grid-function norm sqrt(dx * sum(err**2)); each block of rows is
    measured, one family call, as soon as it is stepped.  us and vs are
    None for a run without a trajectory.
    """

    ts: np.ndarray
    xs: np.ndarray
    us: np.ndarray | None  # (nt, nx)
    vs: np.ndarray | None
    errors: np.ndarray  # (nt, 4)

    def max_error_u(self) -> float:
        return float(np.max(self.errors[:, 0]))

    def max_error_v(self) -> float:
        return float(np.max(self.errors[:, 2]))


def _states(ic_family: SolutionFamily, p: Params, cfg: SimConfig):
    """Yield the checked (u, v) of each time node, t_min first.  Callers hold
    the errstate around the whole loop: one opened here would leak into
    the caller between yields."""
    stepper = _Stepper(p, cfg, ic_family)
    ts, xs = cfg.grid.ts(), cfg.grid.xs()
    u, v = ic_family.eval(ts[0], xs)  # fresh float arrays of shape (nx,)
    _check_blowup(u, v, 0, float(ts[0]))
    yield u, v
    # the boundary traces of a chunk of steps at a time, two samples per step
    for steps in _row_blocks(cfg.grid.nt - 1, 2):
        stepper.trace(ts, steps)
        for n in range(steps.start, steps.stop):
            u, v = stepper.advance(u, v, n)
            _check_blowup(u, v, n + 1, float(ts[n + 1]))
            yield u, v


def _errors(ic_family: SolutionFamily, grid: Grid, ts, us, vs) -> np.ndarray:
    """linf and l2 = sqrt(dx * sum(err**2)) of u and of v against the exact
    family, one row per entry of ts.  The family is evaluated axis-first in
    one call, so callers pass at most one block of rows (``core._row_blocks``).
    The pass works in the family's fresh arrays: |e| and then |e|**2, which
    is e**2 bit for bit, overwrite them, and us and vs stay as they were."""
    ue, ve = ic_family.eval(ts[:, None], grid.xs())
    errors = np.empty((len(ts), 4))
    for col, num, err in ((0, us, ue), (2, vs, ve)):
        np.subtract(num, err, out=err)
        np.abs(err, out=err)
        errors[:, col] = np.max(err, axis=1)
        err *= err
        errors[:, col + 1] = np.sqrt(grid.dx * np.sum(err, axis=1))
    return errors


def run(
    ic_family: SolutionFamily,
    p: Params,
    cfg: SimConfig,
    *,
    trajectory: bool = True,
    on_block: Callable[[np.ndarray, np.ndarray, np.ndarray], None] | None = None,
) -> SimResult:
    """Integrate from the family's t_min state to t_max, measuring the errors
    of each block of rows (``core._row_blocks``) as soon as it is stepped.
    With ``trajectory`` the blocks are rows of the returned (nt, nx) us and
    vs; without it one block buffer is reused and us = vs = None.  Each
    measured block is then passed to ``on_block(ts, us, vs)``, if given, as
    its rows; those arrays are valid only during the call."""
    grid = cfg.grid
    ts = grid.ts()
    blocks = _row_blocks(grid.nt, grid.nx)
    errors = np.empty((grid.nt, 4))
    shape = (grid.nt if trajectory else blocks[0].stop, grid.nx)
    us, vs = np.empty(shape), np.empty(shape)
    states = _states(ic_family, p, cfg)
    # _check_blowup turns every overflow or NaN into BlowUp, step 0 included
    with np.errstate(over="ignore", invalid="ignore"):
        for block in blocks:
            # the block's own rows of the trajectory, or the head of the buffer
            rows = block if trajectory else slice(0, block.stop - block.start)
            for i, (u, v) in zip(range(rows.start, rows.stop), states):
                us[i], vs[i] = u, v
            errors[block] = _errors(ic_family, grid, ts[block], us[rows], vs[rows])
            if on_block is not None:
                on_block(ts[block], us[rows], vs[rows])
    if not trajectory:
        us = vs = None
    return SimResult(ts=ts, xs=grid.xs(), us=us, vs=vs, errors=errors)


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
    Linf(u) error ratios.  Each level keeps only its final state, not a
    trajectory.  Errors at the floating-point floor raise
    InsufficientSignal."""
    if refinements < 2:
        raise ConfigError("need at least 2 refinements to observe an order")
    levels = []
    errs = []
    for level in range(refinements + 1):
        nx = (base_grid.nx - 1) * 2**level + 1
        nt = (base_grid.nt - 1) * 4**level + 1
        grid = replace(base_grid, nx=nx, nt=nt)
        cfg = SimConfig(grid=grid, scheme=scheme, bc=bc, cfl_safety=cfl_safety)
        with np.errstate(over="ignore", invalid="ignore"):
            ((u, v),) = deque(_states(ic_family, p, cfg), maxlen=1)
            err = float(_errors(ic_family, grid, grid.ts()[-1:], u[None], v[None])[0, 0])
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
    then per frame t, u[nx], v[nx] as <f8 (all little-endian).  The header
    (``_frames_header``) and the frames (``_frame_rows``) can also be
    written apart, a block of frames at a time."""
    ts = np.asarray(ts, dtype="<f8")
    us = np.asarray(us, dtype="<f8")
    vs = np.asarray(vs, dtype="<f8")
    with open(path, "wb") as fh:
        _frames_header(fh, xs, len(ts))
        for rows in _row_blocks(len(ts), 2 * np.size(xs) + 1):
            _frame_rows(fh, ts[rows], us[rows], vs[rows])


def _frames_header(fh, xs, nframes: int) -> None:
    """The frame stream's magic, sizes and x grid; at most 2**32 - 1 frames."""
    if nframes >= 2**32:
        raise ConfigError(f"a frame file holds at most 2**32 - 1 frames, got {nframes}")
    xs = np.asarray(xs, dtype="<f8")
    fh.write(FRAME_MAGIC + struct.pack("<II", len(xs), nframes) + xs.tobytes())


def _frame_rows(fh, ts, us, vs) -> None:
    """Append one frame t, u[nx], v[nx] per entry of ts, in one write."""
    fh.write(np.column_stack((ts, us, vs)).astype("<f8", copy=False).tobytes())


def read_frames(path):
    """Inverse of write_frames; returns (ts, xs, us, vs).  A file whose size
    disagrees with its header raises ConfigError, as a bad magic does."""
    with open(path, "rb") as fh:
        head = fh.read(12)
        if head[:4] != FRAME_MAGIC:
            raise ConfigError(f"bad frame magic {head[:4]!r}")
        nx, nt = struct.unpack("<II", head[4:]) if len(head) == 12 else (0, 0)
        size = 12 + 8 * (nx + nt * (1 + 2 * nx))
        held = os.fstat(fh.fileno()).st_size
        if held != size:
            raise ConfigError(f"frame file holds {held} bytes; its header asks for {size}")
        xs = np.fromfile(fh, "<f8", nx)
        frames = np.fromfile(fh, "<f8", nt * (1 + 2 * nx)).reshape(nt, 1 + 2 * nx)
    return frames[:, 0], xs, frames[:, 1:1 + nx], frames[:, 1 + nx:]
