"""The r-space Pekeris expansions, and the varying-mass oracle sweep that uses them.

Two oracle checks of the varying-mass closed form:

* ``reduced`` is the oracle's own Pekeris problem, the quadratic-reduction
  equation the closed form solves exactly - agreement at the discretization
  level (2.1e-9 to 7.4e-8 eV for H2 at l = 0) confirms the quantization
  algebra end to end;
* ``substituted`` plugs the exponential expansions straight into the
  untransformed effective potential, built here and solved on the same grid.
  The quadratic reduction discards delta-weighted cubic and quartic cross
  terms, so the closed form deviates from this variant by a real amount
  (1.2e-4 eV at delta = 0.05 up to 7.8e-3 eV at delta = 0.5 for H2).

``test_oracle.py`` checks both against the README; the table prints with
``PYTHONPATH=src:tests python -m crosscheck.substituted``.
"""

from dataclasses import replace

import numpy as np

from qmorse import builtin
from qmorse.oracle import compare, problem, solve, suggest_config
from qmorse.pekeris import pekeris_coefficients
from qmorse.potential import MassModel, PotentialParams, _mass_derivatives, mass, morse_potential
from qmorse.spectrum import bound_ladder
from qmorse.units import hbar2_over_2mu

DELTAS = (0.05, 0.1, 0.2, 0.3, 0.4, 0.5)


def pekeris_centrifugal(p: PotentialParams, l: int, r):
    """Expanded centrifugal term gamma (a0 + a1 z + a2 z^2), in 1/A^2."""
    pc = pekeris_coefficients(p.alpha)
    gamma = l * (l + 1) / p.r_e**2
    z = np.exp(-p.a * (np.asarray(r, dtype=float) - p.r_e))
    out = gamma * (pc.a0 + pc.a1 * z + pc.a2 * z**2)
    return float(out) if np.isscalar(r) else out


def pekeris_inverse_r(p: PotentialParams, r):
    """Expanded 1/r term (b0 + b1 z + b2 z^2)/r_e, in 1/A."""
    pc = pekeris_coefficients(p.alpha)
    z = np.exp(-p.a * (np.asarray(r, dtype=float) - p.r_e))
    out = (pc.b0 + pc.b1 * z + pc.b2 * z**2) / p.r_e
    return float(out) if np.isscalar(r) else out


def substituted_w(p, mm, l):
    """Untransformed effective potential with both expansions substituted, 1/A^2."""
    inv_h22m = 1.0 / hbar2_over_2mu(mm.m0)

    def w(r):
        m = mass(mm, p, r)
        m1, m2 = _mass_derivatives(mm, p, r)
        return (
            -m2 / (2.0 * m)
            + 0.75 * (m1 / m) ** 2
            - (m1 / m) * pekeris_inverse_r(p, r)
            + pekeris_centrifugal(p, l, r)
            + (m / mm.m0) * inv_h22m * morse_potential(p, r)
        )

    return w


def solve_substituted(p, mm, l, cfg):
    """The substituted problem on the reduced problem's grid origin, walls, B and threshold."""
    reduced, w = problem(p, mm, l), substituted_w(p, mm, l)
    return solve(replace(reduced, wb=lambda r: (w(r), reduced.wb(r)[1])), cfg)


def sweep(name="H2", deltas=DELTAS):
    """(delta, levels, reduced max|dE|, substituted max|dE|) over the s-wave bound ladder."""
    mol = builtin(name)
    p = PotentialParams.from_molecule(mol, 1.0)
    rows = []
    for delta in deltas:
        mm = MassModel.from_molecule(mol, delta)
        closed = (bound_ladder(p, mm, 0).energy + p.v3).tolist()
        prob = problem(p, mm, 0)
        cfg = suggest_config(prob)
        reduced = compare(closed, solve(prob, cfg))
        substituted = compare(closed, solve_substituted(p, mm, 0, cfg))
        rows.append((delta, len(closed), reduced.max_deviation, substituted.max_deviation))
    return rows


if __name__ == "__main__":
    print(f"{'delta':>6} {'levels':>7} {'reduced max|dE|':>17} {'substituted max|dE|':>21}")
    for delta, levels, reduced, substituted in sweep():
        print(f"{delta:>6.2f} {levels:>7d} {reduced:>17.3e} {substituted:>21.3e}")
