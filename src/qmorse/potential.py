"""q-deformed Morse potential, position-dependent mass, effective potential.

The potential is ``V(r) = D_e (q - exp(-a (r - r_e)))^2`` which expands into
``V1 z^2 - V2 z + V3`` with ``z = exp(-a (r - r_e))``, ``V1 = D_e``,
``V2 = 2 q D_e`` and ``V3 = q^2 D_e``.  The mass function is the reciprocal
Morse-like profile ``m(r) = m0 / (1 - delta z)^2``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, MassPoleError
from .molecules import MoleculeRecord
from .units import UNITS, dissociation_energy_eV


@dataclass(frozen=True)
class PotentialParams:
    """Well parameters: depth (eV), range (1/A), equilibrium separation (A), deformation."""

    d_e: float
    a: float
    r_e: float
    q: float = 1.0

    def __post_init__(self):
        if isinstance(self.q, complex):
            raise DomainError("complex deformation parameter is not supported")
        for field in ("d_e", "a", "r_e"):
            value = getattr(self, field)
            if not 0.0 < value < math.inf:
                raise DomainError(f"{field} must be positive and finite, got {value}")
        if not (0.0 < self.q < math.inf or -1.0 <= self.q < 0.0):
            raise DomainError(
                f"deformation q must be finite and satisfy q > 0 or -1 <= q < 0, got {self.q}"
            )

    @property
    def alpha(self) -> float:
        """Dimensionless range, a * r_e."""
        return self.a * self.r_e

    @property
    def v1(self) -> float:
        return self.d_e

    @property
    def v2(self) -> float:
        return 2.0 * self.q * self.d_e

    @property
    def v3(self) -> float:
        return self.q**2 * self.d_e

    @classmethod
    def from_molecule(cls, mol: MoleculeRecord, q: float = 1.0) -> "PotentialParams":
        """Build parameters from a molecule record (the single cm^-1 -> eV conversion)."""
        return cls(d_e=dissociation_energy_eV(mol.d0_cm1), a=mol.a_invA, r_e=mol.r0_A, q=q)


@dataclass(frozen=True)
class MassModel:
    """Asymptotic reduced mass m0 (amu) and mass deformation delta in [0, 1)."""

    m0: float
    delta: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.m0 < math.inf:
            raise DomainError(f"m0 must be positive and finite, got {self.m0}")
        if not (0.0 <= self.delta < 1.0):
            raise DomainError(f"delta must satisfy 0 <= delta < 1, got {self.delta}")

    @classmethod
    def from_molecule(cls, mol: MoleculeRecord, delta: float = 0.0) -> "MassModel":
        return cls(m0=mol.mu_amu, delta=delta)


def _as_positive_radius(r):
    arr = np.asarray(r, dtype=float)
    if np.any(arr <= 0.0):
        raise DomainError("radius must be positive")
    return arr


def morse_potential(p: PotentialParams, r):
    """Potential value in eV at separation r (scalar or array, Angstrom)."""
    arr = _as_positive_radius(r)
    z = np.exp(-p.a * (arr - p.r_e))
    out = p.d_e * (p.q - z) ** 2
    return float(out) if np.isscalar(r) else out


def mass(mm: MassModel, p: PotentialParams, r):
    """Mass profile m(r) = m0 / (1 - delta z)^2, in amu.

    Raises MassPoleError when delta * z >= 1 (only possible for r
    sufficiently below r_e).
    """
    arr = _as_positive_radius(r)
    w = 1.0 - mm.delta * np.exp(-p.a * (arr - p.r_e))
    if np.any(w <= 0.0):
        raise MassPoleError(
            f"mass pole reached: delta * exp(-a(r - r_e)) >= 1 for delta={mm.delta}"
        )
    m = mm.m0 / w**2
    return float(m) if np.isscalar(r) else m


def _mass_derivatives(mm: MassModel, p: PotentialParams, r):
    """m' and m'' of ``mass`` (amu/A, amu/A^2; 0 at delta = 0) at r clear of the pole,
    for ``effective_potential``, their one reader."""
    z = np.exp(-p.a * (r - p.r_e))
    w = 1.0 - mm.delta * z
    m1 = -2.0 * mm.m0 * mm.delta * p.a * z / w**3
    m2 = (
        2.0 * mm.m0 * mm.delta * p.a**2 * z / w**3
        + 6.0 * mm.m0 * mm.delta**2 * p.a**2 * z**2 / w**4
    )
    return m1, m2


def virtual_pole(p: PotentialParams, mm: MassModel) -> float:
    """Radius where delta z = 1, r_e + ln(delta)/a (delta > 0); negative for a virtual pole."""
    return p.r_e + math.log(mm.delta) / p.a


def mass_pole_radius(mm: MassModel, p: PotentialParams) -> float | None:
    """Radius of the mass pole, or None when it lies outside r > 0."""
    if mm.delta <= 0.0:
        return None
    r_pole = virtual_pole(p, mm)
    return r_pole if r_pole > 0.0 else None


def effective_potential(p: PotentialParams, mm: MassModel, l: int, r):
    """Exact effective potential of the transformed radial equation, in 1/A^2.

    W(r) = -m''/2m + (3/4)(m'/m)^2 - (m'/m)/r + l(l+1)/r^2 + (2m/hbar^2) V(r),
    so that the eigenproblem reads  -u'' + W u = (2 m(r) E / hbar^2) u.
    No expansion of the centrifugal term or of 1/r is applied here.
    """
    if l < 0 or l != int(l):
        raise DomainError(f"l must be a non-negative integer, got {l}")
    arr = _as_positive_radius(r)
    m = mass(mm, p, arr)
    m1, m2 = _mass_derivatives(mm, p, arr)
    two_m_over_hbar2 = 2.0 * m * UNITS.amu_to_eV_per_c2 / UNITS.hbar_c**2
    out = (
        -m2 / (2.0 * m)
        + 0.75 * (m1 / m) ** 2
        - (m1 / m) / arr
        + l * (l + 1) / arr**2
        + two_m_over_hbar2 * morse_potential(p, arr)
    )
    return float(out) if np.isscalar(r) else out
