"""Shared domain types for the FitzHugh-Nagumo system with diffusion.

The model is the pair

    u_t = D u_xx - v + g(u),        g(u) = u - u**3 / 3
    v_t = epsilon * (-beta v + c + u)

with real constants D, epsilon, beta > 0 and an optional constant forcing c
in the slow equation (c defaults to 0; only operators whose formulas carry c
honor a nonzero value).  Everything downstream, the exact solution catalog,
the residual checks, the stability analysis and the finite-difference
solver, shares the parameter container, grids and the complex-scalar
helpers defined here.

Complex scalars are plain Python ``complex`` values.  All multivalued
operations (square root, cube root) use principal branches; several closed
forms in the solution catalog have complex intermediates whose imaginary
parts cancel only in exact arithmetic, so a value is accepted as "real"
when ``|Im z| <= REAL_TOL * max(1, |Re z|)`` with ``REAL_TOL = 1e-9``.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FhnxError",
    "NonPositiveParameter",
    "OutOfDomain",
    "ModulusOutOfRange",
    "SingularParameter",
    "BranchMismatch",
    "ComplexResult",
    "ConvergenceError",
    "BlowUp",
    "InsufficientSignal",
    "ConfigError",
    "CflViolation",
    "REAL_TOL",
    "Params",
    "Grid",
    "g",
    "g_prime",
    "ccbrt",
    "is_effectively_real",
]

# Acceptance threshold for "effectively real" complex values.
REAL_TOL = 1e-9


class FhnxError(Exception):
    """Base class for all library errors."""


class NonPositiveParameter(FhnxError):
    """A model constant that must be strictly positive is not."""

    def __init__(self, name: str, value: float):
        self.name = name
        self.value = value
        super().__init__(f"parameter {name!r} must be > 0, got {value!r}")


class OutOfDomain(FhnxError):
    """Requested evaluation outside a solution family's validity region."""


class ModulusOutOfRange(OutOfDomain):
    """Elliptic modulus outside [0, 1] (the real-valued code path)."""


class SingularParameter(FhnxError):
    """A parameter combination that makes a formula divide by zero."""


class BranchMismatch(FhnxError):
    """An effectively-real closed-form value matches no root of the cubic."""


class ComplexResult(FhnxError):
    """An evaluation produced an imaginary part above tolerance."""


class ConvergenceError(FhnxError):
    """An internal iteration failed to converge (hard error)."""


class BlowUp(FhnxError):
    """Simulation state exceeded the blow-up bound."""

    def __init__(self, step: int, t: float, magnitude: float):
        self.step = step
        self.t = t
        self.magnitude = magnitude
        super().__init__(
            f"blow-up at step {step} (t={t:g}): |state| reached {magnitude:.3e}"
        )


class InsufficientSignal(FhnxError):
    """Errors hit the floating-point floor; observed order is meaningless."""


class ConfigError(FhnxError):
    """Malformed configuration (unknown key, bad value, bad combination)."""


class CflViolation(ConfigError):
    """Explicit-scheme time step exceeds the diffusive stability bound."""


@dataclass(frozen=True)
class Params:
    """Model constants D, epsilon, beta (> 0) and optional forcing c."""

    D: float
    epsilon: float
    beta: float
    c: float = 0.0

    def __post_init__(self):
        for name in ("D", "epsilon", "beta", "c"):
            object.__setattr__(self, name, float(getattr(self, name)))
        for name in ("D", "epsilon", "beta"):
            value = getattr(self, name)
            if not (value > 0.0) or not math.isfinite(value):
                raise NonPositiveParameter(name, value)
        if not math.isfinite(self.c):
            raise ConfigError(f"forcing c must be finite, got {self.c!r}")


# numpy refuses an array of more float64 samples ("array is too big")
_MAX_SAMPLES = sys.maxsize // 8


@dataclass(frozen=True)
class Grid:
    """Uniform space-time sampling.

    ``nx >= 3`` points on [x_min, x_max]; ``nt >= 1`` points on
    [t_min, t_max] (nt = 1 collapses the time axis onto t_min, dt = 0).
    """

    x_min: float
    x_max: float
    nx: int
    t_min: float = 0.0
    t_max: float = 0.0
    nt: int = 1

    def __post_init__(self):
        object.__setattr__(self, "nx", int(self.nx))
        object.__setattr__(self, "nt", int(self.nt))
        for name in ("x_min", "x_max", "t_min", "t_max"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if self.nx < 3:
            raise ConfigError(f"nx must be >= 3, got {self.nx}")
        if self.nt < 1:
            raise ConfigError(f"nt must be >= 1, got {self.nt}")
        if max(self.nx, self.nt) > _MAX_SAMPLES:
            raise ConfigError(f"nx and nt must be <= {_MAX_SAMPLES}, got {self.nx}, {self.nt}")
        if not self.x_max > self.x_min:
            raise ConfigError("x_max must exceed x_min")
        if self.t_max < self.t_min:
            raise ConfigError("t_max must not precede t_min")
        if self.nt > 1 and not self.t_max > self.t_min:
            raise ConfigError("nt > 1 requires t_max > t_min")
        # stencils, the CFL bound and the steppers divide by dx**2 and h**order
        if not (math.isfinite(self.dx * self.dx) and math.isfinite(self.dt * self.dt)):
            raise ConfigError(
                f"grid step squared overflows float64 at dx = {self.dx!r}, dt = {self.dt!r}"
            )
        if self.dx * self.dx == 0.0:
            raise ConfigError(f"dx**2 underflows to 0 at dx = {self.dx!r}")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.nx - 1)

    @property
    def dt(self) -> float:
        if self.nt == 1:
            return 0.0
        return (self.t_max - self.t_min) / (self.nt - 1)

    def xs(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.nx)

    def ts(self) -> np.ndarray:
        if self.nt == 1:
            return np.array([self.t_min])
        return np.linspace(self.t_min, self.t_max, self.nt)

    def meshes(self) -> tuple[np.ndarray, np.ndarray]:
        """Return (T, X) arrays of shape (nt, nx)."""
        return np.meshgrid(self.ts(), self.xs(), indexing="ij")


# samples per block of rows in simulate's error pass, verify's checks and the
# stability and constraints sweeps: about 128 KB per float64 array, ten
# 1,601-sample rows
_BLOCK_SAMPLES = 16384


def _row_blocks(n_rows: int, nx: int) -> list[slice]:
    """Consecutive slices covering n_rows rows of nx samples, each of at most
    _BLOCK_SAMPLES samples but never less than one row; every stop is at
    most n_rows."""
    rows = max(1, _BLOCK_SAMPLES // nx)
    return [slice(i, min(i + rows, n_rows)) for i in range(0, n_rows, rows)]


# SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): the state's increment, the
# output mix's two multipliers and the mask of one 64-bit limb
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX = (np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB))
_MASK64 = 2**64 - 1


def _splitmix64(key: int, start: int, stop: int) -> np.ndarray:
    """Outputs start, ..., stop - 1 of the SplitMix64 stream whose state starts
    at key, as uint64: output i mixes key + (i + 1) * gamma (mod 2**64), so it
    depends on key and i alone."""
    z = np.arange(start + 1, stop + 1, dtype=np.uint64)
    z *= _GAMMA
    z += np.uint64(key)
    for shift, mult in zip((30, 27), _MIX):
        z ^= z >> np.uint64(shift)
        z *= mult
    z ^= z >> np.uint64(31)
    return z


def _uniforms(seed: int, start: int, stop: int) -> np.ndarray:
    """Draws start, ..., stop - 1 of the uniform stream on [0, 1) seeded by
    the integer seed >= 0: the top 53 bits of each SplitMix64 output times
    2**-53.  The key is the seed's lowest 64-bit limb; each higher limb is
    xored into output 0 of the stream keyed so far, so draw i depends on
    every bit of the seed and on i alone."""
    key, seed = seed & _MASK64, seed >> 64
    while seed:
        key = int(_splitmix64(key, 0, 1)[0]) ^ (seed & _MASK64)
        seed >>= 64
    z = _splitmix64(key, start, stop)
    z >>= np.uint64(11)
    return z * 2.0**-53


def g(u):
    """Cubic reaction term of the fast equation, u - u*u*u / 3.

    The cube is spelled as a product, as is ``JacobiSnSteady.eval_derivs``'s
    sn cube: numpy sends a float power of 3 through per-element ``pow`` at
    several times the cost, and the two differ by at most an ulp.  The
    transcribed ansatz constraint formulas in ``verify`` keep their printed
    powers.
    """
    u = np.asarray(u, dtype=float) if isinstance(u, np.ndarray) else u
    return u - u * u * u / 3.0


def g_prime(u):
    """Derivative of the reaction term, 1 - u**2."""
    u = np.asarray(u, dtype=float) if isinstance(u, np.ndarray) else u
    return 1.0 - u**2


def ccbrt(z) -> complex:
    """Principal cube root, cbrt(z) = exp(log(z) / 3).

    Note the principal branch of a negative real is complex, e.g.
    ccbrt(-8) = 1 + sqrt(3) i, not -2.
    """
    z = complex(z)
    if z == 0:
        return 0j
    return cmath.exp(cmath.log(z) / 3.0)


def is_effectively_real(z) -> bool:
    """True when |Im z| <= REAL_TOL * max(1, |Re z|), elementwise for arrays."""
    z = np.asarray(z)
    return _real_enough(np.real(z), np.imag(z))


def _real_enough(re, im) -> bool:
    """is_effectively_real of re + i im, given its two real parts."""
    return bool(np.all(np.abs(im) <= REAL_TOL * np.maximum(1.0, np.abs(re))))


def _check_imag(re, im, what: str) -> None:
    """Raise ComplexResult unless re + i im is effectively real; the complex
    value is never formed."""
    if not _real_enough(re, im):
        worst = float(np.max(np.abs(im)))
        raise ComplexResult(f"{what} has imaginary part {worst:.3e} above tolerance")

