"""Second-order exponential expansions of l(l+1)/r^2 and 1/r about r_e.

Matching value, slope and curvature of gamma/(1+x)^2 (with x=(r-r_e)/r_e and
gamma = l(l+1)/r_e^2) against gamma*(a0 + a1 e^{-alpha x} + a2 e^{-2 alpha x})
fixes the a-coefficients; matching 1/(r_e(1+x)) fixes the b-coefficients.
``spectrum.strengths`` alone turns them into the reduced problem; the r-space
expansions themselves serve only the tests (``tests/crosscheck/substituted.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError


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
