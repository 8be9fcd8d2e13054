"""Rovibrational bound states of q-deformed Morse oscillators.

Closed-form spectra and wavefunctions for diatomic molecules in a deformed
Morse well, for both constant and reciprocal-Morse position-dependent mass,
with a finite-difference eigenvalue oracle for verification.
"""

from .errors import (
    DomainError,
    MassPoleError,
    NoRealSolutionError,
    NonNormalizableError,
    ThresholdStateError,
)
from .molecules import BUILTIN_NAMES, MoleculeRecord, builtin, load_molecules, serialize_molecules
from .potential import MassModel, PotentialParams, effective_potential, mass, morse_potential
from .pekeris import CompositeSPQ, PekerisCoefficients, composite_spq, pekeris_coefficients
from .spectrum import (
    QuantumState,
    SpectrumResult,
    bound_ladder,
    energy_constant_mass,
    energy_pdm,
    n_max,
    spectrum_grid,
)
from .units import UNITS, UnitSystem, dissociation_energy_eV, hbar2_over_2mu

__all__ = [
    "BUILTIN_NAMES",
    "CompositeSPQ",
    "DomainError",
    "MassModel",
    "MassPoleError",
    "MoleculeRecord",
    "NoRealSolutionError",
    "NonNormalizableError",
    "PekerisCoefficients",
    "PotentialParams",
    "QuantumState",
    "SpectrumResult",
    "ThresholdStateError",
    "UNITS",
    "UnitSystem",
    "bound_ladder",
    "builtin",
    "composite_spq",
    "dissociation_energy_eV",
    "effective_potential",
    "energy_constant_mass",
    "energy_pdm",
    "hbar2_over_2mu",
    "load_molecules",
    "mass",
    "morse_potential",
    "n_max",
    "pekeris_coefficients",
    "serialize_molecules",
    "spectrum_grid",
]

__version__ = "0.1.0"
