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
when ``|Im z| <= tol * max(1, |Re z|)`` with ``tol = 1e-9`` by default.
"""

from __future__ import annotations

import cmath
import math
import os
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
    "csqrt",
    "ccbrt",
    "is_effectively_real",
    "require_real",
    "worker_count",
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
        if not self.x_max > self.x_min:
            raise ConfigError("x_max must exceed x_min")
        if self.t_max < self.t_min:
            raise ConfigError("t_max must not precede t_min")
        if self.nt > 1 and not self.t_max > self.t_min:
            raise ConfigError("nt > 1 requires t_max > t_min")

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


def g(u):
    """Cubic reaction term of the fast equation."""
    u = np.asarray(u, dtype=float) if isinstance(u, np.ndarray) else u
    return u - u**3 / 3.0


def g_prime(u):
    """Derivative of the reaction term, 1 - u**2."""
    u = np.asarray(u, dtype=float) if isinstance(u, np.ndarray) else u
    return 1.0 - u**2


def csqrt(z) -> complex:
    """Principal square root."""
    return cmath.sqrt(z)


def ccbrt(z) -> complex:
    """Principal cube root, cbrt(z) = exp(log(z) / 3).

    Note the principal branch of a negative real is complex, e.g.
    ccbrt(-8) = 1 + sqrt(3) i, not -2.
    """
    z = complex(z)
    if z == 0:
        return 0j
    return cmath.exp(cmath.log(z) / 3.0)


def is_effectively_real(z, tol: float = REAL_TOL) -> bool:
    """True when |Im z| <= tol * max(1, |Re z|), elementwise for arrays."""
    z = np.asarray(z)
    re = np.abs(np.real(z))
    im = np.abs(np.imag(z))
    return bool(np.all(im <= tol * np.maximum(1.0, re)))


def require_real(z, tol: float = REAL_TOL, what: str = "value"):
    """Return the real part of z, raising ComplexResult above tolerance."""
    z = np.asarray(z)
    if not is_effectively_real(z, tol):
        worst = float(np.max(np.abs(np.imag(z))))
        raise ComplexResult(f"{what} has imaginary part {worst:.3e} above tolerance")
    out = np.real(z).astype(float, copy=True)
    return out if out.ndim else float(out)


def worker_count() -> int:
    """Worker cap from FHNX_THREADS (default 1, minimum 1)."""
    raw = os.environ.get("FHNX_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1
