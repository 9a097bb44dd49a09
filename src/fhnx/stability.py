"""Linear stability of the isolated fixed points.

Perturbations proportional to exp(sigma t + i k x) about a constant state
(u*, v*) obey the 2x2 eigenvalue problem with matrix

    [[ a(k),  -1 ],
     [ eps,   -eps beta ]],        a(k) = g'(u*) - D k**2 = 1 - u***2 - D k**2.

k is treated as a continuous parameter (no boundary conditions quantize
it).  Eigenvalues come from the closed 2x2 form sigma = (tr +/- sqrt(tr**2 -
4 det)) / 2, in one array expression per block of k; the test suite
cross-checks them against an iterative QR eigensolver.

The unstable band is closed form.  A real 2x2 matrix has an eigenvalue with
positive real part iff tr = a - eps beta > 0 or det = eps (1 - beta a) < 0,
i.e. iff a(k) > min(eps beta, 1/beta).  Only u diffuses, so a(k) falls with
k and there is no Turing band: max Re sigma > 0 exactly on [0, k_c) with
k_c = sqrt((1 - u***2 - min(eps beta, 1/beta)) / D), and nowhere when the
radicand is negative.

Classification uses only the signs of (trace, determinant, discriminant).
Near-singular cases (|det| or |disc| below tolerance, or a pure center)
are conservatively labeled "center/degenerate" rather than force-classified.
Space-dependent steady states are not classified here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import _MAX_SAMPLES, ConfigError, OutOfDomain, Params, _row_blocks, g_prime

__all__ = [
    "jacobian_at",
    "eig_closed_form",
    "classify_matrix",
    "classify",
    "dispersion_sweep",
    "DispersionSweep",
]

_DEGENERATE_TOL = 1e-12


@np.errstate(over="ignore", invalid="ignore")
def jacobian_at(p: Params, u_star: float, k=0.0) -> np.ndarray:
    """Perturbation matrix [[1 - u*^2 - D k^2, -1], [eps, -eps beta]].

    k may be an array; the result then holds one matrix per k, with shape
    ``np.shape(k) + (2, 2)``.  A non-finite entry raises OutOfDomain.
    """
    k = np.asarray(k, dtype=float)
    if not np.all(k >= 0.0):
        raise ConfigError(f"wavenumber k must be >= 0, got {float(np.min(k))!r}")
    m = np.empty(k.shape + (2, 2))
    m[...] = [[0.0, -1.0], [p.epsilon, -p.epsilon * p.beta]]
    # a float64 u* overflows to inf where a Python float would raise
    m[..., 0, 0] = g_prime(np.float64(u_star)) - p.D * k * k
    if not np.all(np.isfinite(m)):
        k_top = float(np.max(k))
        cause = "" if math.isfinite(p.D * k_top * k_top) else (
            f": D k**2 overflows float64 at k = {k_top!r}"
        )
        raise OutOfDomain(f"stability matrix is not finite at u* = {u_star!r}{cause}")
    return m


def _trace_det(m):
    m = np.asarray(m, dtype=float)
    a, b, c, d = m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1]
    return a + d, a * d - b * c


def eig_closed_form(m):
    """Eigenvalues (tr +/- sqrt(tr^2 - 4 det)) / 2 of real 2x2 matrices
    stacked on the last two axes; a single matrix gives two complex scalars."""
    tr, det = _trace_det(m)
    root = np.sqrt(tr * tr - 4.0 * det + 0j)
    return (tr + root) / 2.0, (tr - root) / 2.0


def classify_matrix(m) -> tuple[tuple[complex, complex], str]:
    """Eigenvalues plus a trace-determinant-chart label for a 2x2 matrix."""
    tr, det = _trace_det(m)
    disc = tr * tr - 4.0 * det
    eigs = eig_closed_form(m)
    tol = _DEGENERATE_TOL
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


@dataclass(frozen=True)
class DispersionSweep:
    """Growth-rate samples sigma(k) and the zero crossings of max Re sigma."""

    ks: np.ndarray
    sigma: np.ndarray  # shape (n, 2), complex
    band_edges: tuple[float, ...]


@np.errstate(over="ignore", invalid="ignore")
def dispersion_sweep(p: Params, u_star: float, k_max: float, n: int) -> DispersionSweep:
    """Sample sigma(k) on [0, k_max]; its band edge is k_c if k_c <= k_max.

    max Re sigma > 0 iff tr > 0 or det < 0, which holds iff a(k) > min(eps
    beta, 1/beta), and a(k) falls with k (module docstring).  The matrices
    and their eigenvalues are built a block of wavenumbers at a time
    (``core._row_blocks``).  A non-finite sample raises OutOfDomain.
    """
    if not k_max > 0.0:
        raise ConfigError(f"k_max must be > 0, got {k_max!r}")
    if n < 2:
        raise ConfigError(f"need at least 2 samples, got n={n!r}")
    if n > _MAX_SAMPLES:
        raise ConfigError(f"need at most {_MAX_SAMPLES} samples, got n={n!r}")
    ks = np.linspace(0.0, k_max, int(n))
    sigma = np.empty((ks.size, 2), dtype=complex)
    # a(k) falls with k, so a matrix that is not finite at some k is not
    # finite at k_max, the sweep's largest k: it is reported there
    jacobian_at(p, u_star, k_max)
    for block in _row_blocks(ks.size, 4):  # a block of 2x2 matrices
        sigma[block, 0], sigma[block, 1] = eig_closed_form(jacobian_at(p, u_star, ks[block]))
        if not np.all(np.isfinite(sigma[block])):
            raise OutOfDomain(f"growth rate sigma(k) is not finite at u* = {u_star!r}")
    radicand = g_prime(u_star) - min(p.epsilon * p.beta, 1.0 / p.beta)
    k_c = math.sqrt(radicand / p.D) if radicand >= 0.0 else math.inf
    return DispersionSweep(ks=ks, sigma=sigma, band_edges=(k_c,) if k_c <= k_max else ())
