#!/usr/bin/env python3
"""Re-derive the H2-ref parameter set from the bundled reference energies.

The bundled H2 spectroscopic row (38266 1/cm, 1.9426 1/A) does not regenerate
the bundled H2 reference energies: every cell comes out ~2e-4 eV too shallow.
This script scans well-depth / range candidates around the published row and
scores each against all nine H2 reference cells (worst deviation in units of
the last printed digit).  The winner - 4.7446 eV and 1.9425 1/A with the
published r_e and mu - reproduces every cell and is what ships as ``H2-ref``.

Run: python scripts/derive_h2_reference_params.py
"""

import itertools

import numpy as np

from qmorse.molecules import MoleculeRecord
from qmorse.potential import MassModel, PotentialParams
from qmorse.reference import REFERENCE_MINUS_E, cell_decimals
from qmorse.spectrum import ladder_length, spectrum_grid
from qmorse.units import UNITS


def score(d_e: float, a: float, r_e: float, mu: float) -> tuple[float, float]:
    """(worst rounded deviation, worst raw deviation), in last-digit units."""
    mol = MoleculeRecord("cand", d_e / UNITS.wavenumber_to_eV, a, r_e, mu)
    cells = REFERENCE_MINUS_E["H2"]
    n, l = np.array(list(cells)).T
    grid = spectrum_grid(PotentialParams.from_molecule(mol, 1.0), MassModel.from_molecule(mol),
                         n, l).raise_fault()
    worst_round = worst_raw = 0.0
    for printed, energy in zip(cells.values(), grid.energy.tolist()):
        minus_e = -energy
        ulp = 10.0 ** (-cell_decimals(printed))
        worst_raw = max(worst_raw, abs(minus_e - float(printed)) / ulp)
        worst_round = max(worst_round, abs(round(minus_e, cell_decimals(printed)) - float(printed)) / ulp)
    return worst_round, worst_raw


def main() -> None:
    print("=" * 70)
    print("  H2 reference-energy parameter derivation")
    print("=" * 70)

    published = (38266.0 * UNITS.wavenumber_to_eV, 1.9426, 0.7416, 0.50391)
    w_round, w_raw = score(*published)
    print(f"\npublished row  D_e={published[0]:.7f} eV a={published[1]}:"
          f"  worst dev {w_raw:5.1f} last-digit units -> inconsistent")

    d_candidates = [4.7444, 4.7445, 4.7446, 4.7447,
                    38266 * UNITS.wavenumber_to_eV, 38267 * UNITS.wavenumber_to_eV,
                    38268 * UNITS.wavenumber_to_eV]
    a_candidates = [1.9424, 1.9425, 1.9426, 1.9427]

    results = []
    for d_e, a in itertools.product(d_candidates, a_candidates):
        results.append((*score(d_e, a, 0.7416, 0.50391), d_e, a))
    results.sort()

    print("\nbest candidates (worst rounded / raw deviation, last-digit units):")
    for w_round, w_raw, d_e, a in results[:5]:
        print(f"  D_e={d_e:.7f} eV  a={a:.4f} 1/A   rounded={w_round:4.1f} raw={w_raw:5.2f}")

    w_round, w_raw, d_e, a = results[0]
    assert w_round == 0.0, "no candidate reproduces all cells"
    print(f"\nwinner: D_e = {d_e} eV, a = {a} 1/A (r_e = 0.7416 A, mu = 0.50391 amu)")
    print("this is the parameter set shipped as the 'H2-ref' builtin")

    # ladder-edge consistency check
    mol = MoleculeRecord("winner", d_e / UNITS.wavenumber_to_eV, a, 0.7416, 0.50391)
    p, mm = PotentialParams.from_molecule(mol, 1.0), MassModel.from_molecule(mol)
    count = ladder_length(p, mm, 0)
    edge = float(spectrum_grid(p, mm, count, 0).raise_fault().energy)
    print(f"s-wave ladder: {count} bound levels, edge energy {edge:.4e} eV "
          f"(reference -1.231e-4, {abs(edge + 1.231e-4) / 1.231e-4:.2%} off)")


if __name__ == "__main__":
    main()
