"""Independent oracle for v of the separable exponential family, used only
by the tests.

The paper states v as a cubic bracket in P = exp(k x) and
E = exp(eps beta t / 3),

    v = -(2 beta c2**3 P**6 + 6 beta c1 c2**2 P**4 - 9 c2 E**2 P**4
          + 6 beta c1**2 c2 P**2 - 9 c1 E**2 P**2 + 2 beta c1**3)
        / (6 beta E**3 P**3),

evaluated here literally in complex arithmetic (k may be imaginary).  The
library evaluates the algebraically equal v = 3u/(2 beta) - u**3/3
instead; this form overflows once E**3 or P**6 leaves the float range
(t of about 1180 for the benchmark parameters, k x of about 118).
"""

from __future__ import annotations

import numpy as np

from fhnx.solutions import nonclassical_k


def v_bracket(p, c1: float, c2: float, t, x) -> np.ndarray:
    """The paper's bracket form of v at (t, x); complex-valued."""
    b = p.beta
    P = np.exp(nonclassical_k(p) * np.asarray(x, dtype=complex))
    E = np.exp(p.epsilon * b * np.asarray(t, dtype=float) / 3.0).astype(complex)
    bracket = (
        2.0 * b * c2**3 * P**6
        + 6.0 * b * c1 * c2**2 * P**4
        - 9.0 * c2 * E**2 * P**4
        + 6.0 * b * c1**2 * c2 * P**2
        - 9.0 * c1 * E**2 * P**2
        + 2.0 * b * c1**3
    )
    return -bracket / (6.0 * b * E**3 * P**3)
