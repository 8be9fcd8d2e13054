"""Special parameterizations of the deformed Morse well.

Four named reductions of the general three-strength well, including two
non-Hermitian complex-parameter variants.  All four share one closed form,
E_n = scale (c - n - 1/2)^2: each case supplies its (c, scale) through
``ladder()`` and ``special_case_spectrum`` evaluates it.  The first
PT-symmetric type has an imaginary c and so a genuinely non-real spectrum,
computed in complex arithmetic without taking a real part.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, fields

from .errors import DomainError
from .spectrum import EPS_TIE_TOL, QuantumState, SpectrumResult
from .units import UNITS, hbar2_over_2mu


def _require_finite(case) -> None:
    for field in fields(case):
        if not math.isfinite(getattr(case, field.name)):
            raise DomainError(f"{field.name} must be finite, got {getattr(case, field.name)!r}")


def energy_scale(mu: float, r_e: float) -> float:
    """E0 = hbar^2 / (2 mu r_e^2) in eV."""
    return hbar2_over_2mu(mu) / r_e**2


def _kappa(mu: float, r_e: float, D: float) -> float:
    """(r_e / hbar) sqrt(2 mu D), dimensionless in the eV/Angstrom system."""
    return r_e * math.sqrt(2.0 * mu * UNITS.amu_to_eV_per_c2 * D) / UNITS.hbar_c


@dataclass(frozen=True)
class GeneralizedVibrationalCase:
    """V1 = D, V2 = 2 q D, V3 = 0; vibrational well with deformation q.

    c = lambda q and scale = -alpha^2 E0: bound while lambda q > n + 1/2.
    """

    D: float
    alpha: float
    q: float
    mu: float
    r_e: float

    def __post_init__(self):
        _require_finite(self)
        if self.D <= 0 or self.alpha <= 0 or self.mu <= 0 or self.r_e <= 0:
            raise DomainError("D, alpha, mu and r_e must all be positive")

    def ladder(self):
        e0 = energy_scale(self.mu, self.r_e)
        return gv_lambda(self) * self.q, -(self.alpha**2) * e0


@dataclass(frozen=True)
class NonPtCase:
    """Complex strengths V1 = (A1 + i B1)^2, V2 = (2 C1 + 1)(A1 + i B1), alpha = 1.

    Parameterized by the real well scale D and coupling d_hat of
    V(x) = -D [exp(-2x) + i d_hat exp(-x)].  Real spectrum: c = d_hat kappa / 2
    and scale = -E0.
    """

    D: float
    d_hat: float
    mu: float
    r_e: float

    def __post_init__(self):
        _require_finite(self)
        if self.D <= 0 or self.mu <= 0 or self.r_e <= 0:
            raise DomainError("D, mu and r_e must be positive")

    def ladder(self):
        e0 = energy_scale(self.mu, self.r_e)
        return 0.5 * self.d_hat * _kappa(self.mu, self.r_e, self.D), -e0


@dataclass(frozen=True)
class PtType1Case:
    """Same strengths as the non-PT case but alpha = i: V(x) = -D [exp(-2ix) + i d_hat exp(-ix)].

    Non-real spectrum: c = d_hat kappa2 / 2 with the imaginary
    kappa2 = (r_e / i hbar) sqrt(2 mu D) = -i (r_e/hbar) sqrt(2 mu D), and scale = +E0.
    """

    D: float
    d_hat: float
    mu: float
    r_e: float

    def __post_init__(self):
        _require_finite(self)
        if self.D <= 0 or self.mu <= 0 or self.r_e <= 0:
            raise DomainError("D, mu and r_e must be positive")

    def ladder(self):
        e0 = energy_scale(self.mu, self.r_e)
        return 0.5 * self.d_hat * (-1j * _kappa(self.mu, self.r_e, self.D)), e0


@dataclass(frozen=True)
class PtType2Case:
    """V1 = omega^2, V2 = D, V3 = 0 with alpha -> i alpha: V(x) = -omega^2 e^{-2 i a x} + D e^{-i a x}.

    Real spectrum: c = (sqrt(D)/omega) kappa3 / 2 and scale = +E0.
    """

    D: float
    omega: float
    alpha: float
    mu: float
    r_e: float

    def __post_init__(self):
        _require_finite(self)
        if self.D <= 0 or self.omega == 0 or self.alpha <= 0 or self.mu <= 0 or self.r_e <= 0:
            raise DomainError("D, alpha, mu, r_e must be positive and omega nonzero")

    def ladder(self):
        e0 = energy_scale(self.mu, self.r_e)
        return 0.5 * (math.sqrt(self.D) / self.omega) * _kappa(self.mu, self.r_e, self.D), e0


def gv_lambda(case: GeneralizedVibrationalCase) -> float:
    e0 = energy_scale(case.mu, case.r_e)
    return math.sqrt(case.D / (case.alpha**2 * e0))


SPECIAL_CASES = {
    "generalized_vibrational": GeneralizedVibrationalCase,
    "non_pt": NonPtCase,
    "pt_type1": PtType1Case,
    "pt_type2": PtType2Case,
}

CASE_IDS = tuple(SPECIAL_CASES)


def special_case_spectrum(case_id: str, case, n: int) -> SpectrumResult:
    """E_n = scale (c - n - 1/2)^2 for the case's (c, scale); bound while c - n - 1/2 > 0.

    pt_type1's c is imaginary: its energy is complex, with eps_nl None and
    bound False.  An energy that overflows a float raises OverflowError.
    """
    if case_id not in SPECIAL_CASES:
        raise DomainError(f"unknown special case {case_id!r}; available: {', '.join(CASE_IDS)}")
    case_type = SPECIAL_CASES[case_id]
    if not isinstance(case, case_type):
        raise DomainError(f"{case_id} takes a {case_type.__name__}, got {type(case).__name__}")
    c, scale = case.ladder()
    eps = c - n - 0.5
    energy = scale * eps**2
    if not cmath.isfinite(energy):
        raise OverflowError(f"{case_id} level n={n} overflows: energy {energy!r}")
    real = not isinstance(eps, complex)
    return SpectrumResult(
        state=QuantumState(n, 0), energy=energy, eps_nl=eps if real else None,
        variant=f"special_case:{case_id}", bound=real and eps > EPS_TIE_TOL,
        q=getattr(case, "q", 1.0),
    )


def is_non_real(result: SpectrumResult) -> bool:
    energy = result.energy
    return isinstance(energy, complex) and energy.imag != 0


__all__ = [
    "CASE_IDS",
    "SPECIAL_CASES",
    "GeneralizedVibrationalCase",
    "NonPtCase",
    "PtType1Case",
    "PtType2Case",
    "energy_scale",
    "gv_lambda",
    "special_case_spectrum",
    "is_non_real",
]
