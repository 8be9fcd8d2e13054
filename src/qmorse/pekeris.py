"""Second-order exponential expansions of l(l+1)/r^2 and 1/r about r_e.

Matching value, slope and curvature of gamma/(1+x)^2 (with x=(r-r_e)/r_e and
gamma = l(l+1)/r_e^2) against gamma*(a0 + a1 e^{-alpha x} + a2 e^{-2 alpha x})
fixes the a-coefficients; matching 1/(r_e(1+x)) fixes the b-coefficients.
``spectrum.strengths`` alone turns them into the reduced problem.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .potential import PotentialParams


@dataclass(frozen=True)
class PekerisCoefficients:
    a0: float
    a1: float
    a2: float
    b0: float
    b1: float
    b2: float
    alpha: float


def pekeris_coefficients(alpha: float) -> PekerisCoefficients:
    """Closed-form expansion coefficients for a given alpha = a * r_e."""
    if not alpha > 0.0:
        raise DomainError(f"alpha must be positive, got {alpha}")
    a0 = 1.0 - (3.0 / alpha) * (1.0 - 1.0 / alpha)
    a1 = (2.0 / alpha) * (2.0 - 3.0 / alpha)
    a2 = -(1.0 / alpha) * (1.0 - 3.0 / alpha)
    b0 = 1.0 - (1.0 / alpha) * (1.5 - 1.0 / alpha)
    b1 = (2.0 / alpha) * (1.0 - 1.0 / alpha)
    b2 = -(1.0 / alpha) * (0.5 - 1.0 / alpha)
    return PekerisCoefficients(a0, a1, a2, b0, b1, b2, alpha)


def pekeris_centrifugal(p: PotentialParams, l: int, r):
    """Expanded centrifugal term gamma (a0 + a1 z + a2 z^2), in 1/A^2."""
    pc = pekeris_coefficients(p.alpha)
    gamma = l * (l + 1) / p.r_e**2
    z = np.exp(-p.a * (np.asarray(r, dtype=float) - p.r_e))
    out = gamma * (pc.a0 + pc.a1 * z + pc.a2 * z**2)
    return float(out) if np.isscalar(r) else out


def pekeris_inverse_r(p: PotentialParams, r):
    """Expanded 1/r term (b0 + b1 z + b2 z^2)/r_e, in 1/A."""
    pc = pekeris_coefficients(p.alpha)
    z = np.exp(-p.a * (np.asarray(r, dtype=float) - p.r_e))
    out = (pc.b0 + pc.b1 * z + pc.b2 * z**2) / p.r_e
    return float(out) if np.isscalar(r) else out
