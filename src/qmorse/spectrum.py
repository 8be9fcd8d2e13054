"""Closed-form rovibrational bound-state energies.

One array evaluator holds the closed form: ``strengths`` (beta1, beta2 over
l), ``quantize`` (eps_nl, xi, den and the bound rule over broadcast arrays:
the varying-mass bracket for delta > 0, its delta -> 0 limit
eps = beta2 / (2 sqrt(beta1)) - (n + 1/2) for delta = 0) and
``spectrum_grid`` (energies over an n x l grid, delta below DELTA_CROSSOVER
routed to the constant-mass branch).  ``bound_ladder`` is the bound prefix
n = 0, 1, ... of one l.  Failing states are reported per state, not raised;
``energy_pdm`` (one state of a molecule) raises, and ``n_max`` counts the
s-wave ladder.

Energies are computed below the separated-atoms limit, as
gamma a0 hbar^2/2m0 - (hbar^2 a^2/2m0) eps^2, and every function here
returns them so; a caller wanting the literal value of the squared-bracket
well adds the constant offset v3 = q^2 D_e.  Forming the literal value first
and subtracting v3 would cancel: at q = 1e7 it leaves nothing of a level near
the limit.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import DomainError, NoRealSolutionError, ThresholdStateError
from .molecules import MoleculeRecord
from .pekeris import composite_spq, pekeris_coefficients
from .potential import MassModel, PotentialParams
from .units import UNITS, UnitSystem, hbar2_over_2mu

#: below this delta the varying-mass closed form is numerically ill-conditioned
#: (xi diverges like 1/delta); such calls are routed to the constant-mass branch.
DELTA_CROSSOVER = 1e-10

#: eps at or below this is classified unbound (ties count as unbound).
EPS_TIE_TOL = 1e-12

#: per-state fault codes of ``quantize`` (0: none), in the order they are checked
FAULT_BETA1, FAULT_THRESHOLD, FAULT_XI = 1, 2, 3


@dataclass(frozen=True)
class QuantumState:
    """Vibrational and rotational quantum numbers."""

    n: int
    l: int = 0

    def __post_init__(self):
        for name, value in (("n", self.n), ("l", self.l)):
            if type(value) is int and value >= 0:  # the common case, kept cheap
                continue
            if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                    or not 0 <= value < math.inf or value != int(value)):
                raise DomainError(f"{name} must be a non-negative integer, got {value!r}")


@dataclass(frozen=True)
class SpectrumResult:
    """One bound-state (or flagged unbound) energy with provenance."""

    state: QuantumState
    energy: float | complex
    eps_nl: float | None
    variant: str
    bound: bool
    xi: float | None = None
    molecule: str | None = None
    q: float = 1.0
    delta: float = 0.0


@dataclass(frozen=True)
class SpectrumGrid:
    """Closed-form values over broadcast arrays of states.

    xi is +inf on the constant-mass branch (its delta -> 0 limit).  bound is
    eps > EPS_TIE_TOL on the positive branch den > 0 of a state without
    fault; fault_value is the offending beta1, n or xi^2 of a failing state.
    ``spectrum_grid`` adds the energies, below the dissociation limit; delta
    is the deformation evaluated (0.0 on the constant-mass branch).
    """

    eps: np.ndarray
    xi: np.ndarray
    den: np.ndarray
    bound: np.ndarray
    fault: np.ndarray
    fault_value: np.ndarray
    delta: float
    energy: np.ndarray | None = None

    def __getitem__(self, index) -> "SpectrumGrid":
        return replace(self, **{f.name: getattr(self, f.name)[index] for f in fields(self)
                                if isinstance(getattr(self, f.name), np.ndarray)})

    def __len__(self) -> int:
        return len(self.eps)

    def raise_fault(self) -> "SpectrumGrid":
        """Raise the error of the first failing state in row order, if any; else return self."""
        failing = np.flatnonzero(self.fault)
        if failing.size == 0:
            return self
        code = self.fault.flat[failing[0]]
        value = float(self.fault_value.flat[failing[0]])
        if code == FAULT_BETA1:
            raise NoRealSolutionError("no real solution: beta1 is not positive", value)
        if code == FAULT_THRESHOLD:
            raise ThresholdStateError(
                f"state n={int(value)} sits at the varying-mass threshold (vanishing denominator)"
            )
        raise NoRealSolutionError("no real NU solution: xi^2 < 0", value)


def strengths(p: PotentialParams, mm: MassModel, l, units: UnitSystem = UNITS):
    """The state-independent strength composites (beta1, beta2) over an array of l.

    beta1 = (2 m0 V1 / hbar^2 + gamma a2)/a^2 + P delta + Q delta^2
    beta2 = (2 m0 V2 / hbar^2 - gamma a1)/a^2 + S delta
    """
    l = np.asarray(l, dtype=float)
    h22m = hbar2_over_2mu(mm.m0, units)
    big_k = h22m * p.a**2
    pc = pekeris_coefficients(p.alpha)
    spq = composite_spq(p, l)
    gamma = l * (l + 1) / p.r_e**2
    beta1 = (p.v1 + h22m * gamma * pc.a2) / big_k + spq.P * mm.delta + spq.Q * mm.delta**2
    beta2 = (p.v2 - h22m * gamma * pc.a1) / big_k + spq.S * mm.delta
    return beta1, beta2


def quantize(n, beta1, beta2, delta: float) -> SpectrumGrid:
    """Quantized eps_nl, xi and den over broadcast (n, beta1, beta2) arrays.

    delta > 0:  eps = (1/2) [n(n+1) delta - 2(n+1/2) sqrt(beta1) + beta2]
                            / [sqrt(beta1) - (n+1/2) delta]
                xi = sqrt(1 + 4 eps^2 + (4/delta)(beta1/delta - beta2))
    delta = 0:  eps = beta2 / (2 sqrt(beta1)) - (n + 1/2)
    """
    n, beta1, beta2 = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in (n, beta1, beta2)))
    with np.errstate(all="ignore"):
        sqrt_b1 = np.sqrt(beta1)
        den = sqrt_b1 - (n + 0.5) * delta
        if delta == 0.0:
            fault = np.where(beta1 > 0.0, 0, FAULT_BETA1)
            eps = beta2 / (2.0 * sqrt_b1) - (n + 0.5)
            xi_sq = np.full(n.shape, np.inf)
        else:
            eps = 0.5 * (n * (n + 1) * delta - 2.0 * (n + 0.5) * sqrt_b1 + beta2) / den
            xi_sq = 1.0 + 4.0 * eps**2 + (4.0 / delta) * (beta1 / delta - beta2)
            threshold = np.abs(den) <= 1e-14 * np.maximum(1.0, sqrt_b1)
            fault = np.where(beta1 < 0.0, FAULT_BETA1, np.where(
                threshold, FAULT_THRESHOLD, np.where(xi_sq < 0.0, FAULT_XI, 0)))
        xi = np.sqrt(xi_sq)
    fault_value = np.choose(fault, [beta1, beta1, n, xi_sq])
    # normalizable states need eps > 0 on the positive branch (den > 0); past
    # the denominator flip the formula's positive eps is spurious
    bound = (fault == 0) & (eps > EPS_TIE_TOL) & (den > 0.0)
    return SpectrumGrid(eps=eps, xi=xi, den=den, bound=bound, fault=fault,
                        fault_value=fault_value, delta=delta)


def _evaluated_mass(mm: MassModel) -> MassModel:
    """The mass model the closed form is evaluated with (DELTA_CROSSOVER routing)."""
    return mm if mm.delta >= DELTA_CROSSOVER else MassModel(m0=mm.m0)


def spectrum_grid(p: PotentialParams, mm: MassModel, n, l,
                  units: UnitSystem = UNITS) -> SpectrumGrid:
    """eps, xi, den, energy and bound over broadcast n x l arrays.

    E = gamma a0 hbar^2/2m0 - (hbar^2 a^2/2m0) eps^2, below the dissociation
    limit (add p.v3 for the literal well value).
    """
    mm = _evaluated_mass(mm)
    l = np.asarray(l, dtype=float)
    beta1, beta2 = strengths(p, mm, l, units)
    qz = quantize(n, beta1, beta2, mm.delta)
    h22m = hbar2_over_2mu(mm.m0, units)
    gamma = l * (l + 1) / p.r_e**2
    with np.errstate(over="ignore"):  # an overflowed energy is inf; callers check
        energy = h22m * gamma * pekeris_coefficients(p.alpha).a0 - h22m * p.a**2 * qz.eps**2
    return replace(qz, energy=energy)


def _ladder_length(beta1: float, beta2: float, delta: float) -> int:
    """Closed-form count of the leading n with eps_n > EPS_TIE_TOL and den_n > 0.

    At delta = 0, eps_n = eps_0 - n.  For delta > 0, den_n > 0 below
    n = sqrt(beta1)/delta - 1/2, and the sign of eps_n follows the numerator
    delta n^2 + (delta - 2 sqrt(beta1)) n + beta2 - sqrt(beta1), positive
    below its smaller root.
    """
    if not beta1 > 0.0:
        return 0
    sqrt_b1 = math.sqrt(beta1)
    if delta == 0.0:
        edge = float(quantize(0, beta1, beta2, 0.0).eps)
    else:
        edge = sqrt_b1 / delta - 0.5
        b = delta - 2.0 * sqrt_b1
        c = beta2 - sqrt_b1
        disc = b * b - 4.0 * delta * c
        if disc >= 0.0 and b < 0.0:  # b >= 0 leaves den_0 <= 0: no bound state
            # smaller root, in the form free of cancellation for small delta
            edge = min(edge, 2.0 * c / (math.sqrt(disc) - b))
    return max(0, math.ceil(edge - EPS_TIE_TOL))


def ladder_length(p: PotentialParams, mm: MassModel, l: int, units: UnitSystem = UNITS) -> int:
    """Closed-form count of the bound states of one l, without building them."""
    mm = _evaluated_mass(mm)
    beta1, beta2 = strengths(p, mm, l, units)
    return _ladder_length(float(beta1), float(beta2), mm.delta)


def bound_ladder(p: PotentialParams, mm: MassModel, l: int,
                 units: UnitSystem = UNITS) -> SpectrumGrid:
    """Bound states n = 0, 1, ... of one l, up to the first unbound or failing n.

    The candidates are the closed-form count plus one, so rounding at the
    ladder edge cannot cut it short; the bound rule then picks the prefix.
    """
    count = ladder_length(p, mm, l, units)
    grid = spectrum_grid(p, mm, np.arange(count + 1), l, units)
    unbound = np.flatnonzero(~grid.bound)
    return grid[: unbound[0] if unbound.size else count + 1]


def energy_pdm(mol: MoleculeRecord, q: float, delta: float, state: QuantumState,
               units: UnitSystem = UNITS) -> SpectrumResult:
    """Varying-mass energy of one state of a molecule, below the dissociation limit.

    delta below DELTA_CROSSOVER is routed to the constant-mass branch; a
    failing state raises.
    """
    p = PotentialParams.from_molecule(mol, q, units)
    grid = spectrum_grid(p, MassModel.from_molecule(mol, delta), state.n, state.l,
                         units).raise_fault()
    pdm = grid.delta > 0.0
    return SpectrumResult(
        state=state, energy=float(grid.energy), eps_nl=float(grid.eps),
        xi=float(grid.xi) if pdm else None, variant="pdm" if pdm else "constant_mass",
        bound=bool(grid.bound), molecule=mol.name, q=p.q, delta=grid.delta,
    )


def energy_constant_mass(mol: MoleculeRecord, q: float, state: QuantumState,
                         units: UnitSystem = UNITS) -> SpectrumResult:
    """Constant-mass energy of one state of a molecule, below the dissociation limit."""
    return energy_pdm(mol, q, 0.0, state, units)


def n_max(mol: MoleculeRecord, q: float = 1.0, units: UnitSystem = UNITS) -> int:
    """Total number of normalizable s-wave levels.

    The largest normalizable index is n_max - 1; the closed form evaluated at
    n = n_max (already non-normalizable, eps < 0) is the ladder entry nearest
    the continuum, quoted with the count.  Returns 0 (no bound branch) when
    V2 <= 0.
    """
    return ladder_length(PotentialParams.from_molecule(mol, q, units),
                         MassModel.from_molecule(mol), 0, units)


def reduced_coefficients(
    p: PotentialParams, mm: MassModel, l: int, units: UnitSystem = UNITS
) -> tuple[float, float, float]:
    """(beta1, beta2, c0) of the reduced quadratic problem.

    The transformed equation the closed form solves is, in r-space,

        -u'' + a^2 (beta1 z^2 - beta2 z + c0) / (1 - delta z)^2 u
            = (2 m(r) E / hbar^2) u,

    with c0 = (gamma a0 + 2 m0 V3 / hbar^2)/a^2 the state-independent part of
    eps^2.  Used by the oracle's pekeris mode, at any delta.
    """
    beta1, beta2 = strengths(p, mm, l, units)
    h22m = hbar2_over_2mu(mm.m0, units)
    gamma = l * (l + 1) / p.r_e**2
    a0 = pekeris_coefficients(p.alpha).a0
    c0 = (gamma * a0 + p.v3 / h22m) / p.a**2
    return float(beta1), float(beta2), c0
