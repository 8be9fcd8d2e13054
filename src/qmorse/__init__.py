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
from .pekeris import PekerisCoefficients, pekeris_coefficients
from .spectrum import QuantumState, bound_ladder, spectrum_grid
from .units import UNITS, dissociation_energy_eV, hbar2_over_2mu

__all__ = [
    "BUILTIN_NAMES",
    "DomainError",
    "MassModel",
    "MassPoleError",
    "MoleculeRecord",
    "NoRealSolutionError",
    "NonNormalizableError",
    "PekerisCoefficients",
    "PotentialParams",
    "QuantumState",
    "ThresholdStateError",
    "UNITS",
    "bound_ladder",
    "builtin",
    "dissociation_energy_eV",
    "effective_potential",
    "hbar2_over_2mu",
    "load_molecules",
    "mass",
    "morse_potential",
    "pekeris_coefficients",
    "serialize_molecules",
    "spectrum_grid",
]

__version__ = "0.1.0"
