"""Second-order exponential expansions of l(l+1)/r^2 and 1/r about r_e.

Matching value, slope and curvature of gamma/(1+x)^2 (with x=(r-r_e)/r_e and
gamma = l(l+1)/r_e^2) against gamma*(a0 + a1 e^{-alpha x} + a2 e^{-2 alpha x})
fixes the a-coefficients; matching 1/(r_e(1+x)) fixes the b-coefficients.
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


@dataclass(frozen=True)
class CompositeSPQ:
    """Coefficients of the delta and delta^2 terms of the quadratic reduction.

    Dimensionless throughout: the 1/r expansion enters through b_i/(a r_e)
    and the centrifugal expansion through gamma a_i / a^2.
    """

    S: float
    P: float
    Q: float


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


def composite_spq(p: PotentialParams, l: int) -> CompositeSPQ:
    """S, P, Q composites entering the varying-mass strength parameters.

    S multiplies delta in beta2; P and Q multiply delta and delta^2 in beta1.
    gamma = l(l+1)/r_e^2, so gamma a_i / a^2 = l(l+1) a_i / alpha^2.  l may be
    an array, giving array composites.
    """
    l_arr = np.asarray(l, dtype=float)
    if not ((l_arr >= 0) & (l_arr % 1 == 0)).all():
        raise DomainError(f"l must be a non-negative integer, got {l}")
    pc = pekeris_coefficients(p.alpha)
    gamma_over_a2 = l * (l + 1) / p.alpha**2
    base = 1.0 - 2.0 * pc.b0 / p.alpha
    s = base + 2.0 * gamma_over_a2 * pc.a0
    pp = 2.0 * pc.b1 / p.alpha - 2.0 * gamma_over_a2 * pc.a1
    q = base + gamma_over_a2 * pc.a0
    return CompositeSPQ(S=s, P=pp, Q=q)


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
