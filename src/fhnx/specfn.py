"""Jacobi elliptic functions for real argument and modulus in [0, 1].

Convention: the second argument is the MODULUS k, not the parameter
m = k**2.  The steady-state catalog entry that consumes these functions was
produced by a computer-algebra system using the modulus convention, so
silently accepting m here would corrupt that check.  Use
``parameter_from_modulus`` / ``modulus_from_parameter`` to convert.

Algorithm: descending Landen transformation driven by the
arithmetic-geometric mean, cf. DLMF 22.20(ii).  Starting from
a_0 = 1, b_0 = k', c_0 = k, iterate

    a_{n+1} = (a_n + b_n) / 2,  b_{n+1} = sqrt(a_n b_n),  c_{n+1} = (a_n - b_n) / 2

until |c_N / a_N| < 1e-15 (at most 32 iterations, failure is a hard error).
Then phi_N = 2**N a_N z and, descending,

    phi_{n-1} = (phi_n + asin((c_n / a_n) sin phi_n)) / 2,

which yields sn = sin(phi_0) and cn = cos(phi_0).  On the real axis dn is
positive and bounded below by k', so it is computed stably from its
defining identity dn = sqrt(1 - k**2 sn**2).

Degenerate moduli short-circuit: sn(z, 0) = sin z, sn(z, 1) = tanh z.
Arguments beyond half a period are reduced modulo the period 4K(k) first.
"""

from __future__ import annotations

import math

import numpy as np

from .core import ConvergenceError, ModulusOutOfRange

__all__ = [
    "jacobi_sn",
    "jacobi_cn_dn",
    "jacobi_sn_cn_dn",
    "ellipk",
    "modulus_from_parameter",
    "parameter_from_modulus",
]

_AGM_TOL = 1e-15
_AGM_MAX_ITER = 32


def _check_modulus(k: float) -> float:
    k = float(k)
    if not (0.0 <= k <= 1.0) or not math.isfinite(k):
        raise ModulusOutOfRange(f"modulus must lie in [0, 1], got {k!r}")
    return k


def modulus_from_parameter(m: float) -> float:
    """Convert parameter m = k**2 to the modulus k."""
    if not (0.0 <= m <= 1.0):
        raise ModulusOutOfRange(f"parameter must lie in [0, 1], got {m!r}")
    return math.sqrt(m)


def parameter_from_modulus(k: float) -> float:
    """Convert the modulus k to the parameter m = k**2."""
    return _check_modulus(k) ** 2


def _agm_chain(k: float) -> tuple[list[float], list[float]]:
    """AGM scale/correction arrays (a_n, c_n) for modulus k in (0, 1)."""
    kp2 = (1.0 - k) * (1.0 + k)
    a = [1.0]
    b = math.sqrt(kp2)
    c = [k]
    n = 0
    while abs(c[n]) > _AGM_TOL * a[n]:
        if n >= _AGM_MAX_ITER:
            raise ConvergenceError(f"AGM did not converge for modulus {k!r}")
        a_next = 0.5 * (a[n] + b)
        b_next = math.sqrt(a[n] * b)
        c.append(0.5 * (a[n] - b))
        a.append(a_next)
        b = b_next
        n += 1
    return a, c


def ellipk(modulus_k: float) -> float:
    """Complete elliptic integral K(k); quarter period of sn.  K(1) = inf."""
    k = _check_modulus(modulus_k)
    if k == 1.0:
        return math.inf
    a, _ = _agm_chain(k)
    return math.pi / (2.0 * a[-1])


def jacobi_sn_cn_dn(z, modulus_k: float):
    """Evaluate (sn, cn, dn) at real z (scalar or array) and modulus k.

    |sn| <= 1, sn is odd and 4K-periodic in z; sn**2 + cn**2 = 1 and
    dn**2 + k**2 sn**2 = 1 hold to rounding.
    """
    k = _check_modulus(modulus_k)
    z_arr = np.asarray(z, dtype=float)
    scalar = z_arr.ndim == 0

    if k == 0.0:
        sn, cn, dn = np.sin(z_arr), np.cos(z_arr), np.ones_like(z_arr)
    elif (1.0 - k) * (1.0 + k) <= 0.0:
        sn = np.tanh(z_arr)
        cn = 1.0 / np.cosh(z_arr)
        dn = cn.copy()
    else:
        a, c = _agm_chain(k)
        n = len(a) - 1
        quarter = math.pi / (2.0 * a[n])
        period = 4.0 * quarter
        zr = np.where(
            np.abs(z_arr) > 2.0 * quarter,
            z_arr - period * np.round(z_arr / period),
            z_arr,
        )
        phi = np.ldexp(a[n] * zr, n)
        for i in range(n, 0, -1):
            s = np.clip(c[i] / a[i] * np.sin(phi), -1.0, 1.0)
            phi = 0.5 * (phi + np.arcsin(s))
        sn = np.sin(phi)
        cn = np.cos(phi)
        dn = np.sqrt(np.maximum(0.0, 1.0 - (k * sn) ** 2))

    if scalar:
        return float(sn), float(cn), float(dn)
    return sn, cn, dn


def jacobi_sn(z, modulus_k: float):
    """Jacobi sn(z, k); sn(z, 0) = sin z, sn(z, 1) = tanh z."""
    return jacobi_sn_cn_dn(z, modulus_k)[0]


def jacobi_cn_dn(z, modulus_k: float):
    """Jacobi (cn, dn) from the same AGM descent; d/dz sn = cn * dn."""
    _, cn, dn = jacobi_sn_cn_dn(z, modulus_k)
    return cn, dn
