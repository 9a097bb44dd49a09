"""Catalog of exact solutions of the FitzHugh-Nagumo diffusion system.

Nine families, each able to evaluate (u, v) and the analytic derivatives
u_t, u_x, u_xx, v_t (plus u_tt, u_txx for the third-order check) at any
point of its validity region:

* ``FixedPointZero`` / ``FixedPointPlus`` / ``FixedPointMinus``: the
  spatially constant states of the unforced model (c = 0), u* a root of
  u (1 - 1/beta - u**2/3) and v* = u*/beta.  Plus/Minus carry the
  amplitude sqrt(3) sqrt(beta-1) / sqrt(beta), real only for beta >= 1.
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

import cmath
import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .core import (
    BranchMismatch,
    ConfigError,
    FhnxError,
    OutOfDomain,
    Params,
    SingularParameter,
    _check_imag,
    ccbrt,
    is_effectively_real,
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

    try:
        disc = (p / 3.0) ** 3 + (q / 2.0) ** 2
    except OverflowError:
        disc = math.inf
    if not math.isfinite(disc):
        raise OutOfDomain(f"cubic discriminant overflows float64 at p = {p!r}, q = {q!r}")
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
    """All real isolated fixed points (u*, v* = (u* + c)/beta), sorted by u*.

    Ground truth: roots of the depressed cubic
    u**3 - 3 u (beta-1)/beta + 3 c/beta = 0, not the radical closed forms.
    c = 0, beta = 1 yields the single root 0 with multiplicity 3.
    """
    coeff = -3.0 * (p.beta - 1.0) / p.beta
    roots, mults = solve_depressed_cubic(coeff, 3.0 * p.c / p.beta)
    return [FixedPoint(u, (u + p.c) / p.beta, m) for u, m in zip(roots, mults)]


# ---------------------------------------------------------------------------
# Radical closed forms for the fixed points (formulas under test)
# ---------------------------------------------------------------------------


def _cardano_a(p: Params) -> tuple[complex, complex, float]:
    b = p.beta
    try:
        rad = -(4.0 * b**3 - 12.0 * b**2 + 12.0 * b - 4.0) / b
    except OverflowError:
        raise OutOfDomain(f"Cardano A radicand overflows float64 at beta = {b!r}") from None
    w3 = 4.0 * cmath.sqrt(rad) * b * b
    if abs(w3) < np.finfo(float).tiny:
        raise SingularParameter(f"Cardano A: W**3 is 0 or subnormal at beta = {b!r}")
    w = ccbrt(w3)
    u = w / (2.0 * b) + 2.0 * (b - 1.0) / w
    v = -(1.0 / b) * (-w / (2.0 * b)) + (1.0 / b) * (2.0 * (b - 1.0) / w)
    return u, v, max(abs(w / (2.0 * b)), abs(2.0 * (b - 1.0) / w))


def _cardano_b(p: Params) -> tuple[complex, complex, float]:
    b = p.beta
    try:
        rad = -((b - 1.0) ** 3) / b
    except OverflowError:
        raise OutOfDomain(f"Cardano B radicand overflows float64 at beta = {b!r}") from None
    vv3 = cmath.sqrt(rad) * b * b
    if abs(vv3) < np.finfo(float).tiny:
        raise SingularParameter(f"Cardano B: V**3 is 0 or subnormal at beta = {b!r}")
    vv = ccbrt(vv3)
    u = (vv * vv + b * b - b) / (vv * b)
    v = -(-u) / b
    return u, v, max(abs(vv * vv), abs(b * b - b)) / abs(vv * b)


def _plus_minus(p: Params, sign: float) -> tuple[complex, complex, float]:
    b = p.beta
    b_sqrt_b = b * cmath.sqrt(b)
    if b_sqrt_b == 0:
        raise SingularParameter(f"beta * sqrt(beta) underflows to 0 at beta = {b!r}")
    u = sign * cmath.sqrt(3.0) * cmath.sqrt(b - 1.0) / cmath.sqrt(b)
    v = sign * cmath.sqrt(3.0) * cmath.sqrt(b - 1.0) / b_sqrt_b
    return u, v, abs(u)


def _closed_form_match(p: Params, which: str):
    """(u, v, unforced oracle root index, roots) of one closed form, as
    ``eval_fixed_point_closed_form`` checks it; the index and roots are None,
    and the cubic is not solved, when u is not effectively real."""
    if which not in FIXED_POINT_TAGS:
        raise FhnxError(f"unknown fixed-point tag {which!r}")
    # in complex arithmetic; size is the magnitude of the terms u sums, the scale of its rounding
    u, v, size = _FAMILIES[which][1]["closed_form"](p)
    if not is_effectively_real(u):
        return u, v, None, None
    # the catalog's fixed points are states of the unforced model, whatever c the run uses
    roots = tuple(fixed_points(replace(p, c=0.0)))
    for idx, fp in enumerate(roots):
        if abs(u.real - fp.u) <= 1e-9 * max(1.0, abs(fp.u)):
            return u, v, idx, roots
    if any(abs(u.real - fp.u) <= 1e-9 * size for fp in roots):
        raise OutOfDomain(f"{which}: terms of {size:.3g} cancel to rounding at beta = {p.beta!r}")
    raise BranchMismatch(f"{which}: effectively-real value {u.real!r} matches no cubic root")


def eval_fixed_point_closed_form(p: Params, which: str) -> tuple[complex, complex]:
    """Evaluate one radical fixed-point formula literally (principal branches).

    When the value is effectively real it must coincide with a root of the
    cubic oracle to 1e-9, else BranchMismatch (OutOfDomain if it misses by no
    more than the rounding of the terms it sums).  Values with a genuine
    imaginary part (e.g. the Plus amplitude below beta = 1) are returned as-is.
    """
    return _closed_form_match(p, which)[:2]


def closed_form_root_match(p: Params, which: str) -> int | None:
    """Index of the unforced oracle root a closed form lands on (None if
    complex)."""
    return _closed_form_match(p, which)[2]


# ---------------------------------------------------------------------------
# Separable exponential family machinery
# ---------------------------------------------------------------------------


def _wavenumber(D, e, b):
    """Literal k, simplified k2 = (9 - 6 b - 2 e b**2) / (6 b D) and the
    mismatch |k**2 - k2| / max(1, |k2|), elementwise, without warnings.

    k = sqrt(-2 e^4 b^4 - 6 e^3 b^3 + 9 e^3 b^2) sqrt(6) / (6 e b sqrt(D)
    sqrt(e b)) in complex arithmetic.  The mismatch has an absolute floor:
    near the zero set of k**2 the literal radicand cancels in float64.
    """
    # scalars become float64 scalars, not 0-d arrays: their powers round
    # exactly as Python's float ** does, so scalar results keep their bytes
    D, e, b = (np.asarray(v, dtype=float)[()] for v in (D, e, b))
    with np.errstate(all="ignore"):
        rad = -2.0 * e**4 * b**4 - 6.0 * e**3 * b**3 + 9.0 * e**3 * b**2
        k = np.sqrt(rad + 0j) * math.sqrt(6.0) / (6.0 * e * b * np.sqrt(D) * np.sqrt(e * b + 0j))
        k2 = (9.0 - 6.0 * b - 2.0 * e * b**2) / (6.0 * b * D)
        return k, k2, abs(k * k - k2) / np.maximum(1.0, abs(k2))


def nonclassical_k(p: Params) -> complex:
    """Wavenumber of the separable exponential family: the literal radical,
    checked against the simplified k**2 to 1e-12 (``_wavenumber``).  Imaginary
    k is legitimate (spatially oscillatory solutions); a non-finite k or k**2
    raises SingularParameter."""
    k, k2, mismatch = _wavenumber(p.D, p.epsilon, p.beta)
    if not (np.isfinite(k) and np.isfinite(k2)):
        raise SingularParameter(f"wavenumber is not finite for {p}")
    if not mismatch <= 1e-12:
        raise FhnxError(
            "wavenumber consistency failure: literal and simplified forms disagree"
        )
    return complex(k)


def nonclassical_k_squared(p: Params) -> float:
    """Simplified k**2 = (9 - 6 beta - 2 eps beta**2) / (6 beta D), always real."""
    return float(_wavenumber(p.D, p.epsilon, p.beta)[1])


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
    try:
        rad = (
            A**3 * b * e
            + A**4
            - A**2 * b * e
            + B**2 * b * e
            - A**3
            + A**2 * e
            + A * B**2
        )
    except OverflowError:  # a Python-float power of A or B
        raise OutOfDomain(f"ansatz exponent overflows float64 at A = {A!r}, B = {B!r}") from None
    return cmath.sqrt(rad) / (A * math.sqrt(D) * cmath.sqrt(e * b + A))


# Conditional symmetry generators admitted by the third-order reduction.
# Only the last one (eta linear in u) carries the solution family built
# above; the traveling generators have imaginary speed for positive
# parameters and the free-speed generator has no associated closed form,
# so they are recorded as tags only.
_SYMMETRY_GENERATORS = (
    {"tag": "SpaceTranslation", "xi_t": 0.0, "xi_x": 1.0, "eta": "0"},
    {"tag": "TravelingImagSpeedPlus", "xi_t": 1.0, "xi_x": "+sqrt(-D*beta*eps)", "eta": "0"},
    {"tag": "TravelingImagSpeedMinus", "xi_t": 1.0, "xi_x": "-sqrt(-D*beta*eps)", "eta": "0"},
    {"tag": "TravelingFreeSpeed", "xi_t": 1.0, "xi_x": "free constant", "eta": "0"},
    {"tag": "LinearInU", "xi_t": 1.0, "xi_x": 0.0, "eta": "A(t,x)*u + B(t,x)"},
)


def symmetry_catalog() -> tuple[dict, ...]:
    """The recorded conditional-symmetry generator tags."""
    return tuple(dict(s) for s in _SYMMETRY_GENERATORS)


class FSamples(NamedTuple):
    """Sampled profile F and its second derivative on a grid."""

    xs: np.ndarray
    F: np.ndarray
    F2: np.ndarray


@np.errstate(over="ignore", invalid="ignore")
def sample_F(p: Params, A: float, B: float, c1: float, c2: float, xs) -> FSamples:
    """Sample F and F'' = E**2 F on xs for the constraint checker."""
    xs = np.asarray(xs, dtype=float)
    E = solve_F_exponent(p, A, B)

    def term(s, c):
        # c exp(s x), built in place
        z = np.multiply(s, xs, out=np.empty(xs.shape, complex))
        np.exp(z, out=z)
        z *= c
        return z

    # no more than xs and two complex arrays of its length are alive at once
    F = term(E, c1)
    F += term(-E, c2)
    return FSamples(xs, F, (E * E) * F)


# ---------------------------------------------------------------------------
# Solution families
# ---------------------------------------------------------------------------


class SolutionFamily:
    """Common surface of all catalog entries.

    Subclasses are immutable value objects; evaluation is pure and accepts
    scalars or any broadcastable numpy arrays for (t, x).  Each family
    computes its spatial factor on ``x`` and its temporal factor on ``t``
    as passed, so open grids (``ts[:, None]``, ``xs[None, :]``) evaluate
    every transcendental once per axis.  Every method returns fresh,
    writable float arrays of the broadcast shape of (t, x), none aliasing
    another (shape () for scalar arguments); the error pass of
    ``simulate.run`` overwrites ``eval``'s with its differences.

    ``tag``, ``steady`` and ``notes`` are class facts, not constructor
    arguments (but for ``FixedPointState.tag``); ``make_family`` alone
    validates constants and makes them floats.  Each traced class defines its
    own ``eval*`` methods, as ``perfbench/tracing.py`` wraps ``cls.__dict__``.
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


def _on_grid(t, x, *factors):
    """Each factor as a fresh writable array of the broadcast (t, x) shape.

    A factor that already has that shape is a result the caller computed,
    so it is returned without a copy.
    """
    shape = np.broadcast_shapes(np.shape(t), np.shape(x))
    return tuple(
        f if isinstance(f, np.ndarray) and f.shape == shape else np.full(shape, f)
        for f in factors
    )


@dataclass(frozen=True, kw_only=True)
class FixedPointState(SolutionFamily):
    """Spatially constant steady state bound to an oracle cubic root.  A
    catalog state keeps the match it was built from: ``roots``, the unforced
    fixed points, and ``root_index``, the one its closed form lands on."""

    tag: str
    u_star: float
    v_star: float
    root_index: int | None = None
    roots: tuple[FixedPoint, ...] = ()
    steady = True

    def eval(self, t, x):
        return _on_grid(t, x, self.u_star, self.v_star)

    def eval_derivs(self, t, x):
        return _on_grid(t, x, 0.0, 0.0, 0.0, 0.0)

    def eval_second_time_derivs(self, t, x):
        return _on_grid(t, x, 0.0, 0.0)


@dataclass(frozen=True, kw_only=True)
class TanhFront(SolutionFamily):
    """Steady front u = -sign * a tanh(b (x + x0)), v = u / beta."""

    params: Params
    sign: int
    x0: float = 0.0
    steady = True

    def __post_init__(self):
        if self.sign not in (+1, -1):
            raise FhnxError("sign must be +1 or -1")
        if self.params.beta <= 1.0:
            raise OutOfDomain("tanh front requires beta > 1")
        # u_xx carries steepness**2
        if not math.isfinite(self.steepness * self.steepness):
            raise OutOfDomain(
                f"tanh front steepness squared overflows float64 at D = {self.params.D!r}"
            )

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

    def _profile(self, x):
        return np.tanh(self.steepness * (np.asarray(x, dtype=float) + self.x0))

    def eval(self, t, x):
        u = -self.sign * self.amplitude * self._profile(x)
        return _on_grid(t, x, u, u / self.params.beta)

    def eval_derivs(self, t, x):
        th = self._profile(x)
        sech2 = 1.0 - th**2
        a, b = self.amplitude, self.steepness
        u_x = -self.sign * a * b * sech2
        u_xx = -self.sign * a * b**2 * (-2.0 * th * sech2)
        return _on_grid(t, x, 0.0, u_x, u_xx, 0.0)

    def eval_second_time_derivs(self, t, x):
        return _on_grid(t, x, 0.0, 0.0)


@dataclass(frozen=True, kw_only=True)
class JacobiSnSteady(SolutionFamily):
    """Group-invariant steady state built on the elliptic sine.

    v is taken as u/beta from the steady-state assumption; that assumption
    is carried in ``notes`` and surfaces in every residual report.
    """

    params: Params
    c1: float = 1.0
    c2: float = 1.0
    modulus: float = field(init=False)
    amplitude: float = field(init=False)
    steepness: float = field(init=False)
    z0: float = field(init=False)
    tag = "JacobiSnSteady"
    steady = True
    notes = ("v taken as u/beta from the steady-state assumption",)

    def __post_init__(self):
        p = self.params
        b = p.beta
        five = 5.0 * b - 6.0
        if five == 0.0:
            raise SingularParameter("5*beta = 6 is singular for the sn steady state")
        if five < 0.0:
            raise OutOfDomain(
                "sn steady state requires beta > 6/5 (argument radicand negative)"
            )
        try:
            m = self.c2 * math.sqrt(5.0 * b**2 - 6.0 * b) / five
        except OverflowError:
            raise OutOfDomain(f"sn modulus overflows float64 at beta = {b!r}") from None
        if m < 0.0 or m > 1.0 + _MODULUS_DUST:
            raise OutOfDomain(f"sn modulus {m!r} outside [0, 1]")
        m = min(m, 1.0)
        denom = b * self.c2**2 + five
        q = (b - 1.0) / denom
        s_amp = math.sqrt(6.0) * math.sqrt(q)
        object.__setattr__(self, "modulus", m)
        object.__setattr__(self, "amplitude", self.c2 * s_amp)
        object.__setattr__(self, "z0", self.c1 * s_amp)
        object.__setattr__(
            self, "steepness", s_amp * math.sqrt(6.0 * p.D * b * five) / (6.0 * p.D * b)
        )
        # u_xx carries steepness**2
        if not math.isfinite(self.steepness * self.steepness):
            raise OutOfDomain(f"sn steepness squared overflows float64 at D = {p.D!r}")

    def _z(self, x):
        return self.z0 + self.steepness * np.asarray(x, dtype=float)

    def eval(self, t, x):
        sn, _, _ = jacobi_sn_cn_dn(self._z(x), self.modulus)
        u = self.amplitude * sn
        return _on_grid(t, x, u, u / self.params.beta)

    def eval_derivs(self, t, x):
        m = self.modulus
        sn, cn, dn = jacobi_sn_cn_dn(self._z(x), m)
        a, b = self.amplitude, self.steepness
        u_x = a * b * cn * dn
        u_xx = a * b**2 * (2.0 * m**2 * (sn * sn * sn) - (1.0 + m**2) * sn)
        return _on_grid(t, x, 0.0, u_x, u_xx, 0.0)

    def eval_second_time_derivs(self, t, x):
        return _on_grid(t, x, 0.0, 0.0)


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
    k_squared: float = field(init=False)
    tag = "NonClassicalExp"

    def __post_init__(self):
        nonclassical_k(self.params)  # raises unless k is finite and consistent
        object.__setattr__(self, "k_squared", nonclassical_k_squared(self.params))

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
        # s = (c1 + c2) cos + i (c2 - c1) sin and s_x = kappa (-(c1 + c2) sin
        # + i (c2 - c1) cos), with their imaginary parts checked, not formed
        kappa = math.sqrt(-k2)
        cos, sin = np.cos(kappa * x), np.sin(kappa * x)
        s = (c1 + c2) * cos
        _check_imag(s, (c2 - c1) * sin, "spatial factor of the exponential family")
        s_x = kappa * (-(c1 + c2) * sin)
        _check_imag(s_x, kappa * ((c2 - c1) * cos),
                    "spatial derivative of the exponential family")
        return s, s_x

    def _decay(self, t):
        """Temporal factor exp(A t)."""
        return np.exp(self.decay_rate * np.asarray(t, dtype=float))

    def eval(self, t, x):
        s, _ = self._space(x)
        u = self._decay(t) * s
        # v = u (3/(2 beta) - u**2/3) in one array: -(u**2/3) + 3/(2 beta) is
        # the same float; augmented operators, not ``out=``, so a scalar
        # (t, x) still gives scalars
        v = u * u
        v /= -3.0
        v += 1.5 / self.params.beta
        v *= u
        return _on_grid(t, x, u, v)

    def eval_derivs(self, t, x):
        s, s_x = self._space(x)
        decay = self._decay(t)
        u = decay * s
        u_t = self.decay_rate * u
        u_x = decay * s_x
        u_xx = self.k_squared * u
        v_t = u_t * (3.0 / (2.0 * self.params.beta) - u**2)
        return _on_grid(t, x, u_t, u_x, u_xx, v_t)

    def eval_second_time_derivs(self, t, x):
        s, _ = self._space(x)
        u = self._decay(t) * s
        a = self.decay_rate
        return _on_grid(t, x, a * a * u, a * self.k_squared * u)


# ---------------------------------------------------------------------------
# Catalog and factory
# ---------------------------------------------------------------------------

# The one table of per-tag facts: tag -> (class, what the tag fixes, catalog
# text).  A fixed point's tag fixes its radical closed form, any other tag
# the keyword arguments it passes to its class; the class says whether the
# family is steady and holds the defaults of its constants.
_FAMILIES = {
    "FixedPointZero": (FixedPointState, {"closed_form": lambda p: (0j, 0j, 0.0)}, {
        "formula": "u = 0, v = 0",
        "constant_names": [],
        "domain": "any valid parameters",
    }),
    "FixedPointPlus": (FixedPointState, {"closed_form": lambda p: _plus_minus(p, +1.0)}, {
        "formula": "u = sqrt(3) sqrt(beta-1) / sqrt(beta), v = u/beta",
        "constant_names": [],
        "domain": "beta >= 1 (amplitude real)",
    }),
    "FixedPointMinus": (FixedPointState, {"closed_form": lambda p: _plus_minus(p, -1.0)}, {
        "formula": "u = -sqrt(3) sqrt(beta-1) / sqrt(beta), v = u/beta",
        "constant_names": [],
        "domain": "beta >= 1 (amplitude real)",
    }),
    "FixedPointCardanoA": (FixedPointState, {"closed_form": _cardano_a}, {
        "formula": "Cardano radical form of a cubic root, "
        "u = W/(2 beta) + 2(beta-1)/W with W**3 = 4 beta**2 sqrt(-4(beta-1)**3/beta)",
        "constant_names": [],
        "domain": "beta != 1; complex intermediates cancel to a real root",
    }),
    "FixedPointCardanoB": (FixedPointState, {"closed_form": _cardano_b}, {
        "formula": "Cardano radical form of a cubic root, "
        "u = (V**2 + beta**2 - beta)/(V beta) with V**3 = beta**2 sqrt(-(beta-1)**3/beta)",
        "constant_names": [],
        "domain": "beta != 1; complex intermediates cancel to a real root",
    }),
    "TanhFrontPlus": (TanhFront, {"sign": +1}, {
        "formula": "u = -a tanh(b (x + x0)), v = u/beta; "
        "a = sqrt(3(beta-1)/beta), b = sqrt((beta-1)/(2 D beta))",
        "constant_names": ["x0"],
        "domain": "beta > 1",
    }),
    "TanhFrontMinus": (TanhFront, {"sign": -1}, {
        "formula": "u = +a tanh(b (x + x0)), v = u/beta; "
        "a = sqrt(3(beta-1)/beta), b = sqrt((beta-1)/(2 D beta))",
        "constant_names": ["x0"],
        "domain": "beta > 1",
    }),
    "JacobiSnSteady": (JacobiSnSteady, {}, {
        "formula": "u = c2 sqrt(6 (beta-1)/(beta c2**2 + 5 beta - 6)) "
        "sn(z0 + b x, m), v = u/beta (assumed)",
        "constant_names": ["c1", "c2"],
        "domain": "beta > 6/5 and modulus m = c2 sqrt(beta/(5 beta - 6)) in [0, 1]",
    }),
    "NonClassicalExp": (NonClassicalExp, {}, {
        "formula": "u = exp(-eps beta t/3) (c1 e^{-kx} + c2 e^{kx}), "
        "k**2 = (9 - 6 beta - 2 eps beta**2)/(6 beta D); v = 3u/(2 beta) - u**3/3",
        "constant_names": ["c1", "c2"],
        "domain": "any valid parameters; imaginary k needs c1 = c2 for a real u",
    }),
}
FAMILY_TAGS = tuple(_FAMILIES)
FIXED_POINT_TAGS = tuple(tag for tag, (cls, _, _) in _FAMILIES.items() if cls is FixedPointState)


def family_catalog() -> dict:
    """Static catalog: tag, closed-form description, constants, domain, steady."""
    return {tag: {**text, "steady": cls.steady} for tag, (cls, _, text) in _FAMILIES.items()}


def _catalog_entry(tag: str) -> dict:
    """A tag's catalog text; an unknown tag raises ConfigError naming the known tags."""
    if tag not in _FAMILIES:
        raise ConfigError(f"unknown family tag {tag!r}; known: {', '.join(FAMILY_TAGS)}")
    return _FAMILIES[tag][2]


def make_family(tag: str, p: Params, **constants) -> SolutionFamily:
    """Construct a catalog family from its tag and constant map, each constant
    a float; an unknown tag or constant raises ConfigError, and a fixed point
    whose closed form is not effectively real OutOfDomain."""
    allowed = set(_catalog_entry(tag)["constant_names"])
    unknown = set(constants) - allowed
    if unknown:
        raise ConfigError(
            f"family {tag} does not accept constants {sorted(unknown)}; "
            f"allowed: {sorted(allowed)}"
        )
    cls, fixed, _ = _FAMILIES[tag]
    if cls is FixedPointState:
        _, _, idx, roots = _closed_form_match(p, tag)
        if idx is None:
            raise OutOfDomain(f"{tag}: closed form is not effectively real")
        return cls(tag=tag, u_star=roots[idx].u, v_star=roots[idx].v, root_index=idx, roots=roots)
    return cls(params=p, **fixed, **{name: float(value) for name, value in constants.items()})
