"""The package's one unit system: eV, Angstrom and amu.

All energies are in eV and all lengths in Angstrom throughout the package.
The three conversion constants of ``UNITS`` are pinned, not substitutable:
they are the values that generated the bundled reference energies
(``qmorse.reference``), and substituting CODATA values shifts that golden
table by more than its printed precision.  Every function reads ``UNITS``;
none takes a unit system as an argument.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError


@dataclass(frozen=True)
class UnitSystem:
    """Fixed conversion constants of the eV / Angstrom unit system.

    Attributes:
        amu_to_eV_per_c2: rest energy of one atomic mass unit (eV).
        wavenumber_to_eV: energy of one 1/cm photon (eV).
        hbar_c: hbar times the speed of light (eV * Angstrom).
    """

    amu_to_eV_per_c2: float = 931.502e6
    wavenumber_to_eV: float = 1.23985e-4
    hbar_c: float = 1973.29


UNITS = UnitSystem()


def dissociation_energy_eV(d0_wavenumber: float) -> float:
    """Convert a well depth quoted in 1/cm into eV."""
    if not d0_wavenumber > 0.0:
        raise DomainError(f"well depth must be positive, got {d0_wavenumber}")
    return d0_wavenumber * UNITS.wavenumber_to_eV


def hbar2_over_2mu(mu_amu: float) -> float:
    """hbar^2 / (2 mu) in eV*Angstrom^2 for a reduced mass given in amu."""
    if not mu_amu > 0.0:
        raise DomainError(f"reduced mass must be positive, got {mu_amu}")
    return UNITS.hbar_c**2 / (2.0 * mu_amu * UNITS.amu_to_eV_per_c2)
