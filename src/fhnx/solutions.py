"""Catalog of exact solutions of the FitzHugh-Nagumo diffusion system.

Nine families, each able to evaluate (u, v) and the analytic derivatives
u_t, u_x, u_xx, v_t (plus u_tt, u_txx for the third-order check) at any
point of its validity region:

* ``FixedPointZero`` / ``FixedPointPlus`` / ``FixedPointMinus``: the
  spatially constant states u* with u* a root of u (1 - 1/beta - u**2/3)
  and v* = u*/beta.  Plus/Minus carry the amplitude sqrt(3) sqrt(beta-1) /
  sqrt(beta), real only for beta >= 1.
* ``FixedPointCardanoA`` / ``FixedPointCardanoB``: two Cardano-style
  radical rewritings of the same cubic roots with complex intermediates.
  They are evaluated literally in complex arithmetic and must land, after
  the imaginary parts cancel, on a root of the independent cubic solver;
  anything else is a branch error.
* ``TanhFrontPlus`` / ``TanhFrontMinus``: steady fronts
  u = -/+ a tanh(b (x + x0)) with a = sqrt(3) sqrt(beta-1) / sqrt(beta),
  b = (1/2) sqrt(2 (beta-1) / (D beta)), connecting the two nonzero
  fixed points (beta > 1 required).
* ``JacobiSnSteady``: the group-invariant steady state
  u = c2 sqrt(6) sqrt(Q) sn(z(x), m) with Q = (beta-1) / (beta c2**2 +
  5 beta - 6), m = c2 sqrt(5 beta**2 - 6 beta) / (5 beta - 6); valid when
  5 beta > 6 and m in [0, 1].  Its v companion is taken as u/beta from the
  steady-state assumption, which is recorded in every report.
* ``NonClassicalExp``: the separable family
  u = exp(-eps beta t / 3) (c1 exp(-k x) + c2 exp(k x)) with
  k**2 = (9 - 6 beta - 2 eps beta**2) / (6 beta D) and
  v = 3 u / (2 beta) - u**3 / 3.  k may be purely imaginary (it is for
  the benchmark parameter set), in which case the spatial factor is
  rewritten as (c1 + c2) cos(|k| x) + i (c2 - c1) sin(|k| x) and the
  result must be effectively real.

The independent ground truth for fixed points is a depressed-cubic solver
(exact factoring when the constant term vanishes, trigonometric/Cardano
branches otherwise, Newton-polished); the radical closed forms are treated
as formulas under test and matched against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (
    REAL_TOL,
    BranchMismatch,
    FhnxError,
    OutOfDomain,
    Params,
    SingularParameter,
    ccbrt,
    csqrt,
    is_effectively_real,
    require_real,
)
from .specfn import jacobi_sn_cn_dn

__all__ = [
    "FAMILY_TAGS",
    "FIXED_POINT_TAGS",
    "FixedPoint",
    "solve_depressed_cubic",
    "fixed_points",
    "eval_fixed_point_closed_form",
    "closed_form_root_match",
    "nonclassical_k",
    "nonclassical_k_squared",
    "SYMMETRY_GENERATORS",
    "symmetry_catalog",
    "solve_F_exponent",
    "sample_F",
    "FSamples",
    "SolutionFamily",
    "FixedPointState",
    "TanhFront",
    "JacobiSnSteady",
    "NonClassicalExp",
    "make_family",
    "family_catalog",
]

FIXED_POINT_TAGS = (
    "FixedPointZero",
    "FixedPointPlus",
    "FixedPointMinus",
    "FixedPointCardanoA",
    "FixedPointCardanoB",
)

FAMILY_TAGS = FIXED_POINT_TAGS + (
    "TanhFrontPlus",
    "TanhFrontMinus",
    "JacobiSnSteady",
    "NonClassicalExp",
)

# Modulus dust tolerance: the tanh limit of the sn steady state lands a few
# ulps above 1 in floating point; values in (1, 1 + 1e-12] are clamped to 1.
_MODULUS_DUST = 1e-12


class FixedPoint(NamedTuple):
    u: float
    v: float
    multiplicity: int = 1


# ---------------------------------------------------------------------------
# Cubic oracle
# ---------------------------------------------------------------------------


def _newton_polish(root: float, p: float, q: float) -> float:
    for _ in range(2):
        f = root**3 + p * root + q
        df = 3.0 * root**2 + p
        if df == 0.0:
            break
        nxt = root - f / df
        if abs(nxt**3 + p * nxt + q) <= abs(f):
            root = nxt
        else:
            break
    return root


def solve_depressed_cubic(p: float, q: float) -> tuple[tuple[float, ...], tuple[int, ...]]:
    """Real roots and multiplicities of t**3 + p t + q = 0.

    q = 0 factors exactly into t (t**2 + p); otherwise the discriminant
    selects the single-real Cardano branch or the three-real trigonometric
    branch.  Simple roots get a Newton polish.
    """
    p = float(p)
    q = float(q)
    if q == 0.0:
        if p == 0.0:
            return (0.0,), (3,)
        if p > 0.0:
            return (0.0,), (1,)
        s = math.sqrt(-p)
        return (-s, 0.0, s), (1, 1, 1)

    disc = (p / 3.0) ** 3 + (q / 2.0) ** 2
    if disc > 0.0:
        s = math.sqrt(disc)
        root = _cbrt_real(-q / 2.0 + s) + _cbrt_real(-q / 2.0 - s)
        return (_newton_polish(root, p, q),), (1,)
    if disc == 0.0:
        # double root plus simple root (p != 0 since q != 0 here)
        double = -3.0 * q / (2.0 * p)
        simple = 3.0 * q / p
        roots = sorted(((simple, 1), (double, 2)))
        return tuple(r for r, _ in roots), tuple(m for _, m in roots)

    # three distinct real roots: trigonometric branch
    amp = 2.0 * math.sqrt(-p / 3.0)
    arg = 3.0 * q / (amp * p)
    arg = max(-1.0, min(1.0, arg))
    theta = math.acos(arg) / 3.0
    roots = sorted(
        _newton_polish(amp * math.cos(theta - 2.0 * math.pi * j / 3.0), p, q)
        for j in range(3)
    )
    return tuple(roots), (1, 1, 1)


def _cbrt_real(x: float) -> float:
    return math.copysign(abs(x) ** (1.0 / 3.0), x)


def fixed_points(p: Params) -> list[FixedPoint]:
    """All real isolated fixed points (u*, v* = u*/beta), sorted by u*.

    Ground truth: roots of the depressed cubic u**3 - 3 u (beta-1)/beta = 0,
    not the radical closed forms.  beta = 1 yields the single root 0 with
    multiplicity 3.
    """
    coeff = -3.0 * (p.beta - 1.0) / p.beta
    roots, mults = solve_depressed_cubic(coeff, 0.0)
    return [FixedPoint(u, u / p.beta, m) for u, m in zip(roots, mults)]


# ---------------------------------------------------------------------------
# Radical closed forms for the fixed points (formulas under test)
# ---------------------------------------------------------------------------


def _cardano_a(p: Params) -> tuple[complex, complex]:
    b = p.beta
    rad = -(4.0 * b**3 - 12.0 * b**2 + 12.0 * b - 4.0) / b
    w = ccbrt(4.0 * csqrt(rad) * b * b)
    if w == 0:
        raise SingularParameter("beta = 1 collapses the Cardano denominator")
    u = w / (2.0 * b) + 2.0 * (b - 1.0) / w
    v = -(1.0 / b) * (-w / (2.0 * b)) + (1.0 / b) * (2.0 * (b - 1.0) / w)
    return u, v


def _cardano_b(p: Params) -> tuple[complex, complex]:
    b = p.beta
    rad = -((b - 1.0) ** 3) / b
    vv = ccbrt(csqrt(rad) * b * b)
    if vv == 0:
        raise SingularParameter("beta = 1 collapses the Cardano denominator")
    u = (vv * vv + b * b - b) / (vv * b)
    v = -(-u) / b
    return u, v


def _plus_minus(p: Params, sign: float) -> tuple[complex, complex]:
    b = p.beta
    u = sign * csqrt(3.0) * csqrt(b - 1.0) / csqrt(b)
    v = sign * csqrt(3.0) * csqrt(b - 1.0) / (b * csqrt(b))
    return u, v


def eval_fixed_point_closed_form(p: Params, which: str) -> tuple[complex, complex]:
    """Evaluate one radical fixed-point formula literally (principal branches).

    When the value is effectively real it must coincide with a root of the
    cubic oracle to 1e-9; otherwise BranchMismatch is raised.  Values with a
    genuine imaginary part (e.g. the Plus amplitude below beta = 1) are
    returned as-is.
    """
    if which == "FixedPointZero":
        u, v = 0j, 0j
    elif which == "FixedPointPlus":
        u, v = _plus_minus(p, +1.0)
    elif which == "FixedPointMinus":
        u, v = _plus_minus(p, -1.0)
    elif which == "FixedPointCardanoA":
        u, v = _cardano_a(p)
    elif which == "FixedPointCardanoB":
        u, v = _cardano_b(p)
    else:
        raise FhnxError(f"unknown fixed-point tag {which!r}")

    if is_effectively_real(u):
        roots = fixed_points(p)
        if _match_root(u.real, roots) is None:
            raise BranchMismatch(
                f"{which}: effectively-real value {u.real!r} matches no cubic root"
            )
    return u, v


def _match_root(value: float, roots: list[FixedPoint], tol: float = 1e-9):
    for idx, fp in enumerate(roots):
        if abs(value - fp.u) <= tol * max(1.0, abs(fp.u)):
            return idx
    return None


def closed_form_root_match(p: Params, which: str) -> int | None:
    """Index of the oracle root a closed form lands on (None if complex)."""
    u, _ = eval_fixed_point_closed_form(p, which)
    if not is_effectively_real(u):
        return None
    return _match_root(u.real, fixed_points(p))


# ---------------------------------------------------------------------------
# Separable exponential family machinery
# ---------------------------------------------------------------------------


def nonclassical_k(p: Params) -> complex:
    """Wavenumber of the separable exponential family.

    Evaluated two ways: the literal radical expression
    sqrt(-2 e^4 b^4 - 6 e^3 b^3 + 9 e^3 b^2) sqrt(6) / (6 e b sqrt(D)
    sqrt(e b)) in complex arithmetic, and the simplified closed form
    k**2 = (9 - 6 beta - 2 eps beta**2) / (6 beta D).  Both must agree to
    1e-12 relative; the literal principal value is returned.  Imaginary k is
    legitimate (spatially oscillatory solutions) and returned as such.
    """
    e, b, D = p.epsilon, p.beta, p.D
    rad = -2.0 * e**4 * b**4 - 6.0 * e**3 * b**3 + 9.0 * e**3 * b**2
    k_lit = csqrt(rad) * math.sqrt(6.0) / (6.0 * e * b * math.sqrt(D) * csqrt(e * b))
    k2 = nonclassical_k_squared(p)
    # relative with an absolute floor: near the zero set of k**2 the literal
    # radicand cancels and cannot deliver relative accuracy in float64
    if abs(k_lit**2 - k2) > 1e-12 * max(1.0, abs(k2)):
        raise FhnxError(
            "wavenumber consistency failure: literal and simplified forms disagree"
        )
    return k_lit


def nonclassical_k_squared(p: Params) -> float:
    """Simplified k**2 = (9 - 6 beta - 2 eps beta**2) / (6 beta D), always real."""
    return (9.0 - 6.0 * p.beta - 2.0 * p.epsilon * p.beta**2) / (6.0 * p.beta * p.D)


def solve_F_exponent(p: Params, A: float, B: float) -> complex:
    """Exponent of the spatial profile F(x) for general ansatz constants.

    Principal branches land on the conjugate branch: at the solved branch
    A = -eps beta / 3, B = 0 the value equals minus the family wavenumber,
    so comparisons are made on squares.
    """
    if A == 0.0:
        raise SingularParameter("A = 0 makes the ansatz exponent singular")
    e, b, D = p.epsilon, p.beta, p.D
    if e * b + A == 0.0:
        raise SingularParameter("eps*beta + A = 0 makes the ansatz exponent singular")
    rad = (
        A**3 * b * e
        + A**4
        - A**2 * b * e
        + B**2 * b * e
        - A**3
        + A**2 * e
        + A * B**2
    )
    return csqrt(rad) / (A * math.sqrt(D) * csqrt(e * b + A))


# Conditional symmetry generators admitted by the third-order reduction.
# Only the last one (eta linear in u) carries the solution family built
# above; the traveling generators have imaginary speed for positive
# parameters and the free-speed generator has no associated closed form,
# so they are recorded as tags only.
SYMMETRY_GENERATORS = (
    {"tag": "SpaceTranslation", "xi_t": 0.0, "xi_x": 1.0, "eta": "0"},
    {"tag": "TravelingImagSpeedPlus", "xi_t": 1.0, "xi_x": "+sqrt(-D*beta*eps)", "eta": "0"},
    {"tag": "TravelingImagSpeedMinus", "xi_t": 1.0, "xi_x": "-sqrt(-D*beta*eps)", "eta": "0"},
    {"tag": "TravelingFreeSpeed", "xi_t": 1.0, "xi_x": "free constant", "eta": "0"},
    {"tag": "LinearInU", "xi_t": 1.0, "xi_x": 0.0, "eta": "A(t,x)*u + B(t,x)"},
)


def symmetry_catalog() -> tuple[dict, ...]:
    """The recorded conditional-symmetry generator tags."""
    return tuple(dict(s) for s in SYMMETRY_GENERATORS)


class FSamples(NamedTuple):
    """Sampled profile F and its second derivative on a grid."""

    xs: np.ndarray
    F: np.ndarray
    F2: np.ndarray


def sample_F(p: Params, A: float, B: float, c1: float, c2: float, xs) -> FSamples:
    """Sample F and F'' = E**2 F on xs for the constraint checker."""
    xs = np.asarray(xs, dtype=float)
    E = solve_F_exponent(p, A, B)
    F = c1 * np.exp(E * xs) + c2 * np.exp(-E * xs)
    return FSamples(xs, F, (E * E) * F)


# ---------------------------------------------------------------------------
# Solution families
# ---------------------------------------------------------------------------


class SolutionFamily:
    """Common surface of all catalog entries.

    Subclasses are immutable value objects; evaluation is pure and accepts
    scalars or broadcastable numpy arrays for (t, x).
    """

    tag: str = ""
    steady: bool = False
    notes: tuple[str, ...] = ()

    def eval(self, t, x):
        raise NotImplementedError

    def eval_derivs(self, t, x):
        raise NotImplementedError

    def eval_second_time_derivs(self, t, x):
        """(u_tt, u_txx); zero for steady families, closed form otherwise."""
        raise NotImplementedError

def _broadcast(t, x):
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    return np.broadcast_arrays(t, x)


@dataclass(frozen=True, kw_only=True)
class FixedPointState(SolutionFamily):
    """Spatially constant steady state bound to an oracle cubic root."""

    params: Params
    tag: str
    u_star: float
    v_star: float
    steady: bool = True

    def eval(self, t, x):
        tt, _ = _broadcast(t, x)
        return np.full(tt.shape, self.u_star), np.full(tt.shape, self.v_star)

    def eval_derivs(self, t, x):
        tt, _ = _broadcast(t, x)
        z = np.zeros(tt.shape)
        return z, z.copy(), z.copy(), z.copy()

    def eval_second_time_derivs(self, t, x):
        tt, _ = _broadcast(t, x)
        z = np.zeros(tt.shape)
        return z, z.copy()


def _fixed_point_family(p: Params, tag: str) -> FixedPointState:
    roots = fixed_points(p)
    if tag == "FixedPointZero":
        idx = _match_root(0.0, roots)
    elif tag in ("FixedPointPlus", "FixedPointMinus"):
        u, _ = eval_fixed_point_closed_form(p, tag)
        if not is_effectively_real(u):
            raise OutOfDomain(
                f"{tag}: amplitude sqrt(beta-1) is imaginary for beta < 1"
            )
        idx = _match_root(u.real, roots)
    else:  # Cardano rewritings
        u, _ = eval_fixed_point_closed_form(p, tag)
        if not is_effectively_real(u):
            raise OutOfDomain(f"{tag}: closed form is not effectively real")
        idx = _match_root(u.real, roots)
    if idx is None:
        raise BranchMismatch(f"{tag}: no oracle root matches the closed form")
    fp = roots[idx]
    return FixedPointState(params=p, tag=tag, u_star=fp.u, v_star=fp.v)


@dataclass(frozen=True, kw_only=True)
class TanhFront(SolutionFamily):
    """Steady front u = -sign * a tanh(b (x + x0)), v = u / beta."""

    params: Params
    sign: int
    x0: float = 0.0
    steady: bool = True

    def __post_init__(self):
        if self.sign not in (+1, -1):
            raise FhnxError("sign must be +1 or -1")
        if self.params.beta <= 1.0:
            raise OutOfDomain("tanh front requires beta > 1")
        object.__setattr__(self, "x0", float(self.x0))

    @property
    def tag(self) -> str:  # type: ignore[override]
        return "TanhFrontPlus" if self.sign == +1 else "TanhFrontMinus"

    @property
    def amplitude(self) -> float:
        b = self.params.beta
        return math.sqrt(3.0) * math.sqrt(b - 1.0) / math.sqrt(b)

    @property
    def steepness(self) -> float:
        b = self.params.beta
        return 0.5 * math.sqrt(2.0 * (b - 1.0) / (self.params.D * b))

    def _profile(self, t, x):
        tt, xx = _broadcast(t, x)
        return tt, np.tanh(self.steepness * (xx + self.x0))

    def eval(self, t, x):
        _, th = self._profile(t, x)
        u = -self.sign * self.amplitude * th
        return u, u / self.params.beta

    def eval_derivs(self, t, x):
        tt, th = self._profile(t, x)
        sech2 = 1.0 - th**2
        a, b = self.amplitude, self.steepness
        u_x = -self.sign * a * b * sech2
        u_xx = -self.sign * a * b**2 * (-2.0 * th * sech2)
        z = np.zeros(tt.shape)
        return z, u_x, u_xx, z.copy()

    def eval_second_time_derivs(self, t, x):
        tt, _ = _broadcast(t, x)
        z = np.zeros(tt.shape)
        return z, z.copy()


@dataclass(frozen=True, kw_only=True)
class JacobiSnSteady(SolutionFamily):
    """Group-invariant steady state built on the elliptic sine.

    v is taken as u/beta from the steady-state assumption; that assumption
    is carried in ``notes`` and surfaces in every residual report.
    """

    params: Params
    c1: float = 0.0
    c2: float = 0.0
    tag: str = "JacobiSnSteady"
    steady: bool = True
    notes: tuple[str, ...] = (
        "v taken as u/beta from the steady-state assumption",
    )

    def __post_init__(self):
        object.__setattr__(self, "c1", float(self.c1))
        object.__setattr__(self, "c2", float(self.c2))
        p = self.params
        b = p.beta
        five = 5.0 * b - 6.0
        if five == 0.0:
            raise SingularParameter("5*beta = 6 is singular for the sn steady state")
        if five < 0.0:
            raise OutOfDomain(
                "sn steady state requires beta > 6/5 (argument radicand negative)"
            )
        m = self.c2 * math.sqrt(5.0 * b**2 - 6.0 * b) / five
        if m < 0.0 or m > 1.0 + _MODULUS_DUST:
            raise OutOfDomain(f"sn modulus {m!r} outside [0, 1]")
        m = min(m, 1.0)
        denom = b * self.c2**2 + five
        q = (b - 1.0) / denom
        if q < 0.0:
            raise OutOfDomain("sn amplitude radicand negative (needs beta >= 1)")
        s_amp = math.sqrt(6.0) * math.sqrt(q)
        object.__setattr__(self, "_modulus", m)
        object.__setattr__(self, "_amp", self.c2 * s_amp)
        object.__setattr__(self, "_z0", self.c1 * s_amp)
        object.__setattr__(
            self, "_b", s_amp * math.sqrt(6.0 * p.D * b * five) / (6.0 * p.D * b)
        )

    @property
    def modulus(self) -> float:
        return self._modulus  # type: ignore[attr-defined]

    @property
    def amplitude(self) -> float:
        return self._amp  # type: ignore[attr-defined]

    @property
    def steepness(self) -> float:
        return self._b  # type: ignore[attr-defined]

    def _z(self, x):
        return self._z0 + self._b * np.asarray(x, dtype=float)  # type: ignore[attr-defined]

    def eval(self, t, x):
        tt, xx = _broadcast(t, x)
        sn, _, _ = jacobi_sn_cn_dn(self._z(xx), self.modulus)
        u = self.amplitude * np.asarray(sn)
        u = np.broadcast_to(u, tt.shape).copy()
        return u, u / self.params.beta

    def eval_derivs(self, t, x):
        tt, xx = _broadcast(t, x)
        m = self.modulus
        sn, cn, dn = jacobi_sn_cn_dn(self._z(xx), m)
        sn, cn, dn = (np.broadcast_to(np.asarray(a), tt.shape) for a in (sn, cn, dn))
        a, b = self.amplitude, self.steepness
        u_x = a * b * cn * dn
        u_xx = a * b**2 * (2.0 * m**2 * sn**3 - (1.0 + m**2) * sn)
        z = np.zeros(tt.shape)
        return z, u_x, u_xx, z.copy()

    def eval_second_time_derivs(self, t, x):
        tt, _ = _broadcast(t, x)
        z = np.zeros(tt.shape)
        return z, z.copy()


@dataclass(frozen=True, kw_only=True)
class NonClassicalExp(SolutionFamily):
    """Separable exponential family u = exp(A t) (c1 e^{-kx} + c2 e^{kx}).

    A = -eps beta / 3.  For imaginary k the spatial factor is rewritten as
    (c1 + c2) cos(|k| x) + i (c2 - c1) sin(|k| x); evaluation demands an
    effectively real result and raises ComplexResult otherwise.  The
    paper's v, a cubic bracket in the exponentials divided by
    6 beta e^{3 A t} e^{3 k x}, reduces exactly to v = 3u/(2 beta) - u**3/3,
    which is evaluated in real arithmetic and stays finite wherever u**3
    does.
    """

    params: Params
    c1: float = 1.0
    c2: float = 1.0
    tag: str = "NonClassicalExp"
    steady: bool = False

    def __post_init__(self):
        object.__setattr__(self, "c1", float(self.c1))
        object.__setattr__(self, "c2", float(self.c2))
        object.__setattr__(self, "_k", nonclassical_k(self.params))
        object.__setattr__(self, "_k2", nonclassical_k_squared(self.params))

    @property
    def k(self) -> complex:
        return self._k  # type: ignore[attr-defined]

    @property
    def k_squared(self) -> float:
        return self._k2  # type: ignore[attr-defined]

    @property
    def decay_rate(self) -> float:
        """Time-invariance coefficient A = -eps beta / 3."""
        p = self.params
        return -p.epsilon * p.beta / 3.0

    def _space(self, x):
        """Spatial factor and its first derivative, effectively real."""
        x = np.asarray(x, dtype=float)
        k2 = self.k_squared
        c1, c2 = self.c1, self.c2
        if k2 >= 0.0:
            kr = math.sqrt(k2)
            em, ep = np.exp(-kr * x), np.exp(kr * x)
            return c1 * em + c2 * ep, kr * (c2 * ep - c1 * em)
        kappa = math.sqrt(-k2)
        s = (c1 + c2) * np.cos(kappa * x) + 1j * (c2 - c1) * np.sin(kappa * x)
        s_x = kappa * (-(c1 + c2) * np.sin(kappa * x) + 1j * (c2 - c1) * np.cos(kappa * x))
        s = require_real(s, REAL_TOL, "spatial factor of the exponential family")
        s_x = require_real(s_x, REAL_TOL, "spatial derivative of the exponential family")
        return s, s_x

    def eval(self, t, x):
        tt, xx = _broadcast(t, x)
        s, _ = self._space(xx)
        u = np.exp(self.decay_rate * tt) * s
        return u, u * (1.5 / self.params.beta - u * u / 3.0)

    def eval_derivs(self, t, x):
        tt, xx = _broadcast(t, x)
        s, s_x = self._space(xx)
        decay = np.exp(self.decay_rate * tt)
        u = decay * s
        u_t = self.decay_rate * u
        u_x = decay * s_x
        u_xx = self.k_squared * u
        v_t = u_t * (3.0 / (2.0 * self.params.beta) - u**2)
        return u_t, u_x, u_xx, v_t

    def eval_second_time_derivs(self, t, x):
        tt, xx = _broadcast(t, x)
        s, _ = self._space(xx)
        u = np.exp(self.decay_rate * tt) * s
        a = self.decay_rate
        return a * a * u, a * self.k_squared * u


# ---------------------------------------------------------------------------
# Catalog and factory
# ---------------------------------------------------------------------------

_CATALOG = {
    "FixedPointZero": {
        "formula": "u = 0, v = 0",
        "constant_names": [],
        "domain": "any valid parameters",
        "steady": True,
    },
    "FixedPointPlus": {
        "formula": "u = sqrt(3) sqrt(beta-1) / sqrt(beta), v = u/beta",
        "constant_names": [],
        "domain": "beta >= 1 (amplitude real)",
        "steady": True,
    },
    "FixedPointMinus": {
        "formula": "u = -sqrt(3) sqrt(beta-1) / sqrt(beta), v = u/beta",
        "constant_names": [],
        "domain": "beta >= 1 (amplitude real)",
        "steady": True,
    },
    "FixedPointCardanoA": {
        "formula": "Cardano radical form of a cubic root, "
        "u = W/(2 beta) + 2(beta-1)/W with W**3 = 4 beta**2 sqrt(-4(beta-1)**3/beta)",
        "constant_names": [],
        "domain": "beta != 1; complex intermediates cancel to a real root",
        "steady": True,
    },
    "FixedPointCardanoB": {
        "formula": "Cardano radical form of a cubic root, "
        "u = (V**2 + beta**2 - beta)/(V beta) with V**3 = beta**2 sqrt(-(beta-1)**3/beta)",
        "constant_names": [],
        "domain": "beta != 1; complex intermediates cancel to a real root",
        "steady": True,
    },
    "TanhFrontPlus": {
        "formula": "u = -a tanh(b (x + x0)), v = u/beta; "
        "a = sqrt(3(beta-1)/beta), b = sqrt((beta-1)/(2 D beta))",
        "constant_names": ["x0"],
        "domain": "beta > 1",
        "steady": True,
    },
    "TanhFrontMinus": {
        "formula": "u = +a tanh(b (x + x0)), v = u/beta; "
        "a = sqrt(3(beta-1)/beta), b = sqrt((beta-1)/(2 D beta))",
        "constant_names": ["x0"],
        "domain": "beta > 1",
        "steady": True,
    },
    "JacobiSnSteady": {
        "formula": "u = c2 sqrt(6 (beta-1)/(beta c2**2 + 5 beta - 6)) "
        "sn(z0 + b x, m), v = u/beta (assumed)",
        "constant_names": ["c1", "c2"],
        "domain": "beta > 6/5 and modulus m = c2 sqrt(beta/(5 beta - 6)) in [0, 1]",
        "steady": True,
    },
    "NonClassicalExp": {
        "formula": "u = exp(-eps beta t/3) (c1 e^{-kx} + c2 e^{kx}), "
        "k**2 = (9 - 6 beta - 2 eps beta**2)/(6 beta D); v = 3u/(2 beta) - u**3/3",
        "constant_names": ["c1", "c2"],
        "domain": "any valid parameters; imaginary k needs c1 = c2 for a real u",
        "steady": False,
    },
}


def family_catalog() -> dict:
    """Static catalog: tag, closed-form description, constants, domain."""
    return {tag: dict(info) for tag, info in _CATALOG.items()}


def make_family(tag: str, p: Params, **constants) -> SolutionFamily:
    """Construct a catalog family from its tag and constant map."""
    if tag not in FAMILY_TAGS:
        raise FhnxError(f"unknown family tag {tag!r}; known: {', '.join(FAMILY_TAGS)}")
    allowed = set(_CATALOG[tag]["constant_names"])
    unknown = set(constants) - allowed
    if unknown:
        raise FhnxError(
            f"family {tag} does not accept constants {sorted(unknown)}; "
            f"allowed: {sorted(allowed)}"
        )
    if tag in FIXED_POINT_TAGS:
        return _fixed_point_family(p, tag)
    if tag == "TanhFrontPlus":
        return TanhFront(params=p, sign=+1, x0=constants.get("x0", 0.0))
    if tag == "TanhFrontMinus":
        return TanhFront(params=p, sign=-1, x0=constants.get("x0", 0.0))
    if tag == "JacobiSnSteady":
        return JacobiSnSteady(
            params=p, c1=constants.get("c1", 0.0), c2=constants.get("c2", 0.0)
        )
    return NonClassicalExp(
        params=p, c1=constants.get("c1", 1.0), c2=constants.get("c2", 1.0)
    )
