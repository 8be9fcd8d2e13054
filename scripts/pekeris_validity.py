#!/usr/bin/env python3
"""Characterize where the second-order exponential expansion stays valid.

For each (n, l) the closed form solves the expansion-approximated problem
exactly; the exact-centrifugal oracle solves the true rotational problem.
Their difference is therefore the physical error of the expansion itself.
It grows with l (the expansion is local around r_e) and with n (higher
states sample larger |r - r_e|).

Emits a plot-ready CSV table to stdout; a `#` comment names each (n, l)
the exact-mode oracle has no level for, with the number of levels it found.

Run: python scripts/pekeris_validity.py [molecule]
"""

import sys

import numpy as np

from qmorse import builtin
from qmorse.oracle import problem, solve, suggest_config
from qmorse.potential import MassModel, PotentialParams
from qmorse.spectrum import spectrum_grid

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
        grid = spectrum_grid(p, mm, np.arange(max(N_LIST) + 1), l).raise_fault()
        if not grid.bound.all():
            continue
        closed = (grid.energy + p.v3).tolist()  # the literal well value, as the oracle's
        e_top = closed[-1] + 0.1 * abs(closed[-1] - closed[0])
        prob = problem(p, mm, l, "exact")
        spectrum = solve(prob, suggest_config(prob, e_top=e_top))
        found = len(spectrum.eigenvalues)
        missing = [f"({n}, {l})" for n in N_LIST if n >= found]
        if missing:
            print(f"# missing (n, l) = {', '.join(missing)}: "
                  f"the exact-mode oracle found {found} levels")
        for n in N_LIST:
            if n >= found:
                continue
            exact = float(spectrum.eigenvalues[n])
            dev = abs(exact - closed[n])
            print(f"{n},{l},{closed[n] - p.v3:.6f},{exact - p.v3:.6f},{dev:.3e}")


if __name__ == "__main__":
    main()
