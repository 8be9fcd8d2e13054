#!/usr/bin/env python3
"""Characterize where the second-order exponential expansion stays valid.

For each (n, l) the closed form solves the expansion-approximated problem
exactly; the exact-centrifugal oracle solves the true rotational problem.
Their difference is therefore the physical error of the expansion itself.
It grows with l (the expansion is local around r_e) and with n (higher
states sample larger |r - r_e|).

Emits a plot-ready CSV table to stdout.

Run: python scripts/pekeris_validity.py [molecule]
"""

import sys

from qmorse import builtin
from qmorse.oracle import solve, suggest_config
from qmorse.potential import MassModel, PotentialParams
from qmorse.spectrum import QuantumState, energy_constant_mass_params

N_LIST = (0, 3, 5, 7)
L_LIST = (0, 5, 10, 15, 20)


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "H2-ref"
    mol = builtin(name)
    p = PotentialParams.from_molecule(mol, 1.0)
    mm = MassModel.from_molecule(mol, 0.0)

    print(f"# molecule = {mol.name}")
    print("# deviation = |exact-centrifugal oracle - closed form| in eV")
    print("n,l,closed_form_eV,exact_oracle_eV,deviation_eV")
    for l in L_LIST:
        closed = [energy_constant_mass_params(p, mm, QuantumState(n, l)) for n in range(max(N_LIST) + 1)]
        if not all(c.bound for c in closed):
            continue
        e_top = closed[-1].energy + 0.1 * abs(closed[-1].energy - closed[0].energy)
        cfg = suggest_config(p, mm, l, e_top=e_top,
                             centrifugal_mode="exact")
        spectrum = solve(p, mm, l, cfg)
        for n in N_LIST:
            if n >= len(spectrum.eigenvalues):
                continue
            exact = float(spectrum.eigenvalues[n])
            dev = abs(exact - closed[n].energy)
            print(f"{n},{l},{closed[n].energy - p.v3:.6f},{exact - p.v3:.6f},{dev:.3e}")


if __name__ == "__main__":
    main()
