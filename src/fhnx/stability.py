"""Linear stability of the isolated fixed points.

Perturbations proportional to exp(sigma t + i k x) about a constant state
(u*, v*) obey the 2x2 eigenvalue problem with matrix

    [[ g'(u*) - D k**2,  -1 ],
     [ eps,             -eps beta ]]

where g'(u*) = 1 - u***2.  k is treated as a continuous parameter (no
boundary conditions quantize it).  Eigenvalues come from the closed 2x2
form sigma = (tr +/- sqrt(tr**2 - 4 det)) / 2; the test suite cross-checks
them against an iterative QR eigensolver.

Classification uses only the signs of (trace, determinant, discriminant).
Near-singular cases (|det| or |disc| below tolerance, or a pure center)
are conservatively labeled "center/degenerate" rather than force-classified.
Space-dependent steady states are not classified here.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .core import ConfigError, Params, g_prime

__all__ = [
    "jacobian_at",
    "eig_closed_form",
    "classify_matrix",
    "classify",
    "dispersion_sweep",
    "DispersionSweep",
]

_DEGENERATE_TOL = 1e-12


def jacobian_at(p: Params, u_star: float, k: float = 0.0) -> np.ndarray:
    """Perturbation matrix [[1 - u*^2 - D k^2, -1], [eps, -eps beta]]."""
    if k < 0.0:
        raise ConfigError(f"wavenumber k must be >= 0, got {k!r}")
    return np.array(
        [
            [g_prime(u_star) - p.D * k * k, -1.0],
            [p.epsilon, -p.epsilon * p.beta],
        ]
    )


def eig_closed_form(m) -> tuple[complex, complex]:
    """Eigenvalues of a real 2x2 matrix, (tr +/- sqrt(tr^2 - 4 det)) / 2."""
    m = np.asarray(m, dtype=float)
    tr = m[0, 0] + m[1, 1]
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    root = cmath.sqrt(tr * tr - 4.0 * det)
    return (tr + root) / 2.0, (tr - root) / 2.0


def classify_matrix(m, tol: float = _DEGENERATE_TOL) -> tuple[tuple[complex, complex], str]:
    """Eigenvalues plus a trace-determinant-chart label for a 2x2 matrix."""
    m = np.asarray(m, dtype=float)
    tr = m[0, 0] + m[1, 1]
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    disc = tr * tr - 4.0 * det
    eigs = eig_closed_form(m)
    if abs(det) < tol or abs(disc) < tol or (det > 0.0 and abs(tr) < tol):
        return eigs, "center/degenerate"
    if det < 0.0:
        return eigs, "saddle"
    if tr < 0.0:
        return eigs, "stable node" if disc > 0.0 else "stable spiral"
    return eigs, "unstable node" if disc > 0.0 else "unstable spiral"


def classify(p: Params, u_star: float, k: float = 0.0) -> tuple[tuple[complex, complex], str]:
    """Classify a fixed point at wavenumber k."""
    return classify_matrix(jacobian_at(p, u_star, k))


def _re_sigma_max(p: Params, u_star: float, k: float) -> float:
    s1, s2 = eig_closed_form(jacobian_at(p, u_star, k))
    return max(s1.real, s2.real)


@dataclass(frozen=True)
class DispersionSweep:
    """Growth-rate samples sigma(k) and the zero crossings of max Re sigma."""

    ks: np.ndarray
    sigma: np.ndarray  # shape (n, 2), complex
    band_edges: tuple[float, ...]

    @property
    def re_sigma_max(self) -> np.ndarray:
        return self.sigma.real.max(axis=1)

    def rows(self):
        """CSV-ready rows (k, re_sigma_1, re_sigma_2, im_sigma_1, im_sigma_2)."""
        for k, (s1, s2) in zip(self.ks, self.sigma):
            yield (float(k), s1.real, s2.real, s1.imag, s2.imag)


def dispersion_sweep(p: Params, u_star: float, k_max: float, n: int) -> DispersionSweep:
    """Sample sigma(k) on [0, k_max] and bisect the sign changes of
    max Re sigma to 1e-8 in k (unstable band endpoints)."""
    if not k_max > 0.0:
        raise ConfigError(f"k_max must be > 0, got {k_max!r}")
    if n < 2:
        raise ConfigError(f"need at least 2 samples, got n={n!r}")
    ks = np.linspace(0.0, k_max, int(n))
    sigma = np.empty((len(ks), 2), dtype=complex)
    for i, k in enumerate(ks):
        sigma[i] = eig_closed_form(jacobian_at(p, u_star, float(k)))

    f = sigma.real.max(axis=1)
    edges = []
    for i in range(len(ks) - 1):
        if f[i] == 0.0:
            edges.append(float(ks[i]))
        elif f[i] * f[i + 1] < 0.0:
            lo, hi = float(ks[i]), float(ks[i + 1])
            flo = f[i]
            while hi - lo > 1e-8:
                mid = 0.5 * (lo + hi)
                fm = _re_sigma_max(p, u_star, mid)
                if fm == 0.0:
                    lo = hi = mid
                    break
                if (fm > 0.0) == (flo > 0.0):
                    lo, flo = mid, fm
                else:
                    hi = mid
            edges.append(0.5 * (lo + hi))
    if f[-1] == 0.0:
        edges.append(float(ks[-1]))
    return DispersionSweep(ks=ks, sigma=sigma, band_edges=tuple(edges))
