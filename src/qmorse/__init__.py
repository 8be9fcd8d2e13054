"""Rovibrational bound states of q-deformed Morse oscillators.

Closed-form spectra and wavefunctions for diatomic molecules in a deformed
Morse well, for both constant and reciprocal-Morse position-dependent mass,
with a finite-difference eigenvalue oracle for verification.

Importing the package loads none of its modules: each public name is looked
up in its submodule on first access (PEP 562), so ``python -m qmorse.cli``
imports only what its subcommand runs.
"""

import importlib

#: the submodule that defines each public name
_SUBMODULE = {
    **dict.fromkeys(("DomainError", "MassPoleError", "NoRealSolutionError",
                     "NonNormalizableError", "ThresholdStateError"), "errors"),
    **dict.fromkeys(("BUILTIN_NAMES", "MoleculeRecord", "builtin", "load_molecules"),
                    "molecules"),
    **dict.fromkeys(("MassModel", "PotentialParams", "effective_potential", "mass",
                     "morse_potential"), "potential"),
    **dict.fromkeys(("PekerisCoefficients", "pekeris_coefficients"), "pekeris"),
    **dict.fromkeys(("QuantumState", "bound_ladder", "spectrum_grid"), "spectrum"),
    **dict.fromkeys(("UNITS", "dissociation_energy_eV", "hbar2_over_2mu"), "units"),
}

__all__ = sorted(_SUBMODULE)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SUBMODULE[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value
