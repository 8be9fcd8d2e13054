"""The eps-inversion energy and the LiH/HCl ladder-figure assignment."""

from qmorse import MassModel, PotentialParams, QuantumState, builtin, energy_constant_mass, n_max
from qmorse.pekeris import pekeris_coefficients
from qmorse.reference import AMBIGUOUS_LADDER_ENERGIES
from qmorse.units import UNITS, UnitSystem, hbar2_over_2mu


def energy_from_epsilon(
    p: PotentialParams, mm: MassModel, l: int, eps: float, units: UnitSystem = UNITS
) -> float:
    """Invert the eps definition: E = V3 + gamma a0 hbar^2/2m0 - (hbar^2 a^2/2m0) eps^2."""
    h22m = hbar2_over_2mu(mm.m0, units)
    gamma = l * (l + 1) / p.r_e**2
    a0 = pekeris_coefficients(p.alpha).a0
    return p.v3 + h22m * gamma * a0 - h22m * p.a**2 * eps**2


def resolve_reported_ladder(units: UnitSystem = UNITS) -> dict[str, tuple[int, float, float]]:
    """Computational resolution of the LiH/HCl ladder-figure assignment.

    The two reported (count, edge-energy) pairs for LiH and HCl carry
    contradictory orderings in the source material.  For each molecule the
    closed form is evaluated at the candidate indices {n_max - 1, n_max} and
    matched against the two reported energies; the winner determines the
    assignment.  Computation gives LiH -> 29 (the formula value at the count
    index) and HCl -> 24 (the last normalizable index).

    Returns {name: (index, energy, relative_mismatch)}.
    """
    out: dict[str, tuple[int, float, float]] = {}
    for name in ("LiH", "HCl"):
        mol = builtin(name)
        count = n_max(mol, 1.0, units)
        best: tuple[int, float, float] | None = None
        for idx in (count - 1, count):
            energy = energy_constant_mass(mol, 1.0, QuantumState(idx, 0), units).energy
            for ref in AMBIGUOUS_LADDER_ENERGIES:
                rel = abs(energy - ref) / abs(ref)
                if best is None or rel < best[2]:
                    best = (idx, energy, rel)
        assert best is not None
        out[name] = best
    return out
