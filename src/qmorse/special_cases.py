"""Special parameterizations of the deformed Morse well.

Four named reductions of the general three-strength well, including two
non-Hermitian complex-parameter variants.  Energies follow the closed forms;
the first PT-symmetric type has a genuinely non-real spectrum and is computed
in complex arithmetic without taking a real part.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, fields
from typing import Callable, NamedTuple

from .errors import DomainError
from .spectrum import EPS_TIE_TOL, QuantumState, SpectrumResult
from .units import UNITS, hbar2_over_2mu


def _require_finite(case) -> None:
    for field in fields(case):
        if not math.isfinite(getattr(case, field.name)):
            raise DomainError(f"{field.name} must be finite, got {getattr(case, field.name)!r}")


@dataclass(frozen=True)
class GeneralizedVibrationalCase:
    """V1 = D, V2 = 2 q D, V3 = 0; vibrational well with deformation q."""

    D: float
    alpha: float
    q: float
    mu: float
    r_e: float

    def __post_init__(self):
        _require_finite(self)
        if self.D <= 0 or self.alpha <= 0 or self.mu <= 0 or self.r_e <= 0:
            raise DomainError("D, alpha, mu and r_e must all be positive")


@dataclass(frozen=True)
class NonPtCase:
    """Complex strengths V1 = (A1 + i B1)^2, V2 = (2 C1 + 1)(A1 + i B1), alpha = 1.

    Parameterized by the real well scale D and coupling d_hat of
    V(x) = -D [exp(-2x) + i d_hat exp(-x)].
    """

    D: float
    d_hat: float
    mu: float
    r_e: float

    def __post_init__(self):
        _require_finite(self)
        if self.D <= 0 or self.mu <= 0 or self.r_e <= 0:
            raise DomainError("D, mu and r_e must be positive")


@dataclass(frozen=True)
class PtType1Case:
    """Same strengths as the non-PT case but alpha = i: V(x) = -D [exp(-2ix) + i d_hat exp(-ix)]."""

    D: float
    d_hat: float
    mu: float
    r_e: float

    def __post_init__(self):
        _require_finite(self)
        if self.D <= 0 or self.mu <= 0 or self.r_e <= 0:
            raise DomainError("D, mu and r_e must be positive")


@dataclass(frozen=True)
class PtType2Case:
    """V1 = omega^2, V2 = D, V3 = 0 with alpha -> i alpha: V(x) = -omega^2 e^{-2 i a x} + D e^{-i a x}."""

    D: float
    omega: float
    alpha: float
    mu: float
    r_e: float

    def __post_init__(self):
        _require_finite(self)
        if self.D <= 0 or self.omega == 0 or self.alpha <= 0 or self.mu <= 0 or self.r_e <= 0:
            raise DomainError("D, alpha, mu, r_e must be positive and omega nonzero")


def energy_scale(mu: float, r_e: float) -> float:
    """E0 = hbar^2 / (2 mu r_e^2) in eV."""
    return hbar2_over_2mu(mu) / r_e**2


def _kappa(mu: float, r_e: float, D: float) -> float:
    """(r_e / hbar) sqrt(2 mu D), dimensionless in the eV/Angstrom system."""
    return r_e * math.sqrt(2.0 * mu * UNITS.amu_to_eV_per_c2 * D) / UNITS.hbar_c


def gv_lambda(case: GeneralizedVibrationalCase) -> float:
    e0 = energy_scale(case.mu, case.r_e)
    return math.sqrt(case.D / (case.alpha**2 * e0))


def gv_energy(case: GeneralizedVibrationalCase, n: int) -> SpectrumResult:
    """E_n = -alpha^2 E0 [lambda q - n - 1/2]^2, bound while lambda q > n + 1/2."""
    e0 = energy_scale(case.mu, case.r_e)
    lam = gv_lambda(case)
    eps = lam * case.q - n - 0.5
    energy = -(case.alpha**2) * e0 * eps**2
    return SpectrumResult(
        state=QuantumState(n, 0), energy=energy, eps_nl=eps, variant="special_case:generalized_vibrational",
        bound=eps > EPS_TIE_TOL, q=case.q,
    )


def non_pt_energy(case: NonPtCase, n: int) -> SpectrumResult:
    """Real spectrum of the complex well: E_n = -E0 [d_hat kappa/2 - n - 1/2]^2."""
    e0 = energy_scale(case.mu, case.r_e)
    kappa1 = _kappa(case.mu, case.r_e, case.D)
    eps = 0.5 * case.d_hat * kappa1 - n - 0.5
    energy = -e0 * eps**2
    return SpectrumResult(
        state=QuantumState(n, 0), energy=energy, eps_nl=eps, variant="special_case:non_pt",
        bound=eps > EPS_TIE_TOL,
    )


def pt_type1_energy(case: PtType1Case, n: int) -> SpectrumResult:
    """Non-real spectrum: E_n = +E0 [d_hat kappa2/2 - n - 1/2]^2 with imaginary kappa2.

    kappa2 = (r_e / i hbar) sqrt(2 mu D) = -i (r_e/hbar) sqrt(2 mu D).  The
    result is complex and deliberately returned as such; bound is False.
    """
    e0 = energy_scale(case.mu, case.r_e)
    kappa2 = -1j * _kappa(case.mu, case.r_e, case.D)
    eps = 0.5 * case.d_hat * kappa2 - n - 0.5
    energy = e0 * eps**2
    return SpectrumResult(
        state=QuantumState(n, 0), energy=energy, eps_nl=None, variant="special_case:pt_type1",
        bound=False,
    )


def pt_type2_energy(case: PtType2Case, n: int) -> SpectrumResult:
    """Real spectrum: E_n = +E0 [ (sqrt(D)/omega) kappa3 / 2 - n - 1/2 ]^2."""
    e0 = energy_scale(case.mu, case.r_e)
    kappa3 = _kappa(case.mu, case.r_e, case.D)
    eps = 0.5 * (math.sqrt(case.D) / case.omega) * kappa3 - n - 0.5
    energy = e0 * eps**2
    return SpectrumResult(
        state=QuantumState(n, 0), energy=energy, eps_nl=eps, variant="special_case:pt_type2",
        bound=eps > EPS_TIE_TOL,
    )


class SpecialCase(NamedTuple):
    """A named reduction: its parameter dataclass and its energy function."""

    case_type: type
    energy: Callable[..., SpectrumResult]


SPECIAL_CASES = {
    "generalized_vibrational": SpecialCase(GeneralizedVibrationalCase, gv_energy),
    "non_pt": SpecialCase(NonPtCase, non_pt_energy),
    "pt_type1": SpecialCase(PtType1Case, pt_type1_energy),
    "pt_type2": SpecialCase(PtType2Case, pt_type2_energy),
}

CASE_IDS = tuple(SPECIAL_CASES)


def special_case_spectrum(case_id: str, case, n: int) -> SpectrumResult:
    """Dispatch on case_id; pt_type1 yields a complex energy flagged unbound.

    An energy that overflows a float raises OverflowError.
    """
    if case_id not in SPECIAL_CASES:
        raise DomainError(f"unknown special case {case_id!r}; available: {', '.join(CASE_IDS)}")
    result = SPECIAL_CASES[case_id].energy(case, n)
    if not cmath.isfinite(result.energy):
        raise OverflowError(f"{case_id} level n={n} overflows: energy {result.energy!r}")
    return result


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
    "SpecialCase",
    "energy_scale",
    "gv_lambda",
    "gv_energy",
    "non_pt_energy",
    "pt_type1_energy",
    "pt_type2_energy",
    "special_case_spectrum",
    "is_non_real",
]
