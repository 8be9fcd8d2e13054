"""The eps-inversion energy and the LiH/HCl ladder-figure assignment."""

from qmorse import MassModel, PotentialParams, builtin, spectrum_grid
from qmorse.pekeris import pekeris_coefficients
from qmorse.spectrum import ladder_length
from qmorse.units import hbar2_over_2mu

from .reference import AMBIGUOUS_LADDER_ENERGIES


def energy_from_epsilon(p: PotentialParams, mm: MassModel, l: int, eps: float) -> float:
    """Invert the eps definition: E = V3 + gamma a0 hbar^2/2m0 - (hbar^2 a^2/2m0) eps^2."""
    h22m = hbar2_over_2mu(mm.m0)
    gamma = l * (l + 1) / p.r_e**2
    a0 = pekeris_coefficients(p.alpha).a0
    return p.v3 + h22m * gamma * a0 - h22m * p.a**2 * eps**2


def resolve_reported_ladder() -> dict[str, tuple[int, float, float]]:
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
        p, mm = PotentialParams.from_molecule(mol, 1.0), MassModel.from_molecule(mol)
        count = ladder_length(p, mm, 0)
        best: tuple[int, float, float] | None = None
        indices = (count - 1, count)
        energies = spectrum_grid(p, mm, indices, 0).raise_fault().energy.tolist()
        for idx, energy in zip(indices, energies):
            for ref in AMBIGUOUS_LADDER_ENERGIES:
                rel = abs(energy - ref) / abs(ref)
                if best is None or rel < best[2]:
                    best = (idx, energy, rel)
        assert best is not None
        out[name] = best
    return out
