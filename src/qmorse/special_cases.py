"""Special parameterizations of the deformed Morse well.

Four named reductions of the general three-strength well, including two
non-Hermitian complex-parameter variants.  All four share one closed form,
E_n = sign (k (c - n - 1/2))^2 with k = alpha sqrt(hbar^2 / 2 mu) / r_e, the
square root of the energy scale alpha^2 E0: each case supplies its (c, k, sign)
through ``ladder()`` and ``special_case_ladder`` evaluates it over an array of
n, with the bound rule c - n - 1/2 > EPS_TIE_TOL.  Forming k rather than its
square keeps every level whose energy is a float finite, however large or
small r_e^2 or alpha^2 E0 alone would be.  The first PT-symmetric type
has an imaginary c and so a genuinely non-real spectrum, computed in complex
arithmetic without taking a real part; its levels are never bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import DomainError
from .spectrum import EPS_TIE_TOL
from .units import UNITS, hbar2_over_2mu


class _Case:
    """The one validation rule of the four cases: every field finite; D, alpha,
    mu and r_e positive; omega nonzero."""

    def __post_init__(self):
        values = {field.name: getattr(self, field.name) for field in fields(self)}
        for name, value in values.items():
            if not math.isfinite(value):
                raise DomainError(f"{name} must be finite, got {value!r}")
        for name, value in values.items():
            if name in ("D", "alpha", "mu", "r_e") and not value > 0:
                raise DomainError(f"{name} must be positive, got {value!r}")
            if name == "omega" and value == 0:
                raise DomainError(f"omega must be nonzero, got {value!r}")


def _root_scale(mu: float, r_e: float, alpha: float = 1.0) -> float:
    """k = alpha sqrt(hbar^2 / 2 mu) / r_e = sqrt(alpha^2 E0), in sqrt(eV)."""
    return alpha * math.sqrt(hbar2_over_2mu(mu)) / r_e


def _kappa(mu: float, r_e: float, D: float) -> float:
    """(r_e / hbar) sqrt(2 mu D), dimensionless in the eV/Angstrom system."""
    return r_e * math.sqrt(2.0 * mu * UNITS.amu_to_eV_per_c2 * D) / UNITS.hbar_c


@dataclass(frozen=True)
class GeneralizedVibrationalCase(_Case):
    """V1 = D, V2 = 2 q D, V3 = 0; vibrational well with deformation q.

    c = lambda q, k = sqrt(alpha^2 E0) and sign -1: bound while lambda q > n + 1/2.
    """

    D: float
    alpha: float
    q: float
    mu: float
    r_e: float

    def ladder(self):
        return gv_lambda(self) * self.q, _root_scale(self.mu, self.r_e, self.alpha), -1.0


@dataclass(frozen=True)
class NonPtCase(_Case):
    """Complex strengths V1 = (A1 + i B1)^2, V2 = (2 C1 + 1)(A1 + i B1), alpha = 1.

    Parameterized by the real well scale D and coupling d_hat of
    V(x) = -D [exp(-2x) + i d_hat exp(-x)].  Real spectrum: c = d_hat kappa / 2,
    k = sqrt(E0) and sign -1.
    """

    D: float
    d_hat: float
    mu: float
    r_e: float

    def ladder(self):
        c = 0.5 * self.d_hat * _kappa(self.mu, self.r_e, self.D)
        return c, _root_scale(self.mu, self.r_e), -1.0


@dataclass(frozen=True)
class PtType1Case(_Case):
    """Same strengths as the non-PT case but alpha = i: V(x) = -D [exp(-2ix) + i d_hat exp(-ix)].

    Non-real spectrum: c = d_hat kappa2 / 2 with the imaginary
    kappa2 = (r_e / i hbar) sqrt(2 mu D) = -i (r_e/hbar) sqrt(2 mu D), k = sqrt(E0) and sign +1.
    """

    D: float
    d_hat: float
    mu: float
    r_e: float

    def ladder(self):
        c = 0.5 * self.d_hat * (-1j * _kappa(self.mu, self.r_e, self.D))
        return c, _root_scale(self.mu, self.r_e), 1.0


@dataclass(frozen=True)
class PtType2Case(_Case):
    """V1 = omega^2, V2 = D, V3 = 0 with alpha -> i alpha: V(x) = -omega^2 e^{-2 i a x} + D e^{-i a x}.

    Real spectrum: c = (sqrt(D)/omega) kappa3 / 2, k = sqrt(E0) and sign +1.
    """

    D: float
    omega: float
    alpha: float
    mu: float
    r_e: float

    def ladder(self):
        c = 0.5 * (math.sqrt(self.D) / self.omega) * _kappa(self.mu, self.r_e, self.D)
        return c, _root_scale(self.mu, self.r_e), 1.0


def gv_lambda(case: GeneralizedVibrationalCase) -> float:
    """lambda = sqrt(D / (alpha^2 E0))."""
    return math.sqrt(case.D) / _root_scale(case.mu, case.r_e, case.alpha)


SPECIAL_CASES = {
    "generalized_vibrational": GeneralizedVibrationalCase,
    "non_pt": NonPtCase,
    "pt_type1": PtType1Case,
    "pt_type2": PtType2Case,
}

CASE_IDS = tuple(SPECIAL_CASES)
_CASE_ID = {case_type: case_id for case_id, case_type in SPECIAL_CASES.items()}


def special_case_ladder(case, n) -> tuple[np.ndarray, np.ndarray]:
    """(energy, bound) over an array of n: E_n = sign (k (c - n - 1/2))^2 for
    the case's (c, k, sign), bound while c - n - 1/2 > EPS_TIE_TOL.

    pt_type1's c is imaginary: its energies are complex and never bound.  A
    negative or non-integer n raises DomainError; an energy that overflows a
    float (or a c or k that does) raises OverflowError naming the case and
    the first such level.
    """
    case_id = _CASE_ID.get(type(case))
    if case_id is None:
        raise DomainError(f"not a special case: {type(case).__name__}")
    n = np.asarray(n)
    with np.errstate(all="ignore"):
        bad = ~((n >= 0) & (n % 1 == 0))  # also NaN and inf
        if bad.any():
            raise DomainError(f"n must be a non-negative integer, got {n[bad][0].item()!r}")
        try:
            c, k, sign = case.ladder()
        except ArithmeticError:  # a product or quotient of the fields is past the float range
            c = k = sign = math.nan
        eps = c - n - 0.5
        energy = sign * np.square(k * eps)
        overflow = np.flatnonzero(~np.isfinite(energy))
    if overflow.size:
        i = overflow[0]
        raise OverflowError(f"{case_id} level n={n.flat[i].item()} overflows:"
                            f" energy {energy.flat[i].item()!r}")
    bound = np.zeros(eps.shape, bool) if np.iscomplexobj(eps) else eps > EPS_TIE_TOL
    return energy, bound


__all__ = [
    "CASE_IDS",
    "SPECIAL_CASES",
    "GeneralizedVibrationalCase",
    "NonPtCase",
    "PtType1Case",
    "PtType2Case",
    "gv_lambda",
    "special_case_ladder",
]
