"""Closed-form rovibrational bound-state energies.

One array evaluator holds the closed form: ``strengths`` (the reduced
problem over l, the one place the Pekeris expansion enters: beta1, beta2 and
the continuum offset), ``quantize`` (eps_nl, xi, den and the bound rule over
broadcast arrays: the varying-mass bracket for delta > 0, its delta -> 0 limit
eps = beta2 / (2 sqrt(beta1)) - (n + 1/2) for delta = 0) and
``spectrum_grid`` (energies over an n x l grid, delta below DELTA_CROSSOVER
routed to the constant-mass branch).  ``bound_ladder`` is the bound prefix
n = 0, 1, ... of one l, and ``ladder_length`` its closed-form count.  Every
function takes a (PotentialParams, MassModel) pair, of a molecule through
their ``from_molecule``.  Failing states are reported per state, not raised;
``SpectrumGrid.raise_fault`` raises the first.  An n that is no level raises
DomainError.

Energies are computed below the separated-atoms limit, as
offset - (hbar^2 a^2/2m0) eps^2 with offset = gamma a0 hbar^2/2m0, and every
function here returns them so; a caller wanting the literal value of the
squared-bracket well adds the constant v3 = q^2 D_e.  Forming the literal
value first and subtracting v3 would cancel: at q = 1e7 it leaves nothing of
a level near the limit.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import DomainError, NoRealSolutionError, ThresholdStateError
from .pekeris import pekeris_coefficients
from .potential import MassModel, PotentialParams
from .units import hbar2_over_2mu

#: below this delta the varying-mass closed form is numerically ill-conditioned
#: (xi diverges like 1/delta); such calls are routed to the constant-mass branch.
DELTA_CROSSOVER = 1e-10

#: eps at or below this is classified unbound (ties count as unbound).
EPS_TIE_TOL = 1e-12

#: most bound levels a ladder may count: past it n + 1/2 is no longer exact in a
#: float, so neighbouring n share one eps (and past 2**53, n and n - 1 coincide)
MAX_LADDER_LENGTH = 2**52 - 1

#: per-state fault codes of ``quantize`` (0: none), in the order they are checked
FAULT_BETA1, FAULT_THRESHOLD, FAULT_XI = 1, 2, 3


@dataclass(frozen=True)
class QuantumState:
    """Vibrational and rotational quantum numbers."""

    n: int
    l: int = 0

    def __post_init__(self):
        for name, value in (("n", self.n), ("l", self.l)):
            if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                    or not 0 <= value < math.inf or value != int(value)):
                raise DomainError(f"{name} must be a non-negative integer, got {value!r}")


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


def strengths(p: PotentialParams, mm: MassModel, l):
    """The reduced problem over an array of l: (beta1, beta2, offset), from the Pekeris
    expansion (the only place it enters), with gamma = l(l+1)/r_e^2 and B = 1 - 2 b0/alpha:

    beta1 = (2 m0 V1 / hbar^2 + gamma a2)/a^2 + P delta + Q delta^2
    beta2 = (2 m0 V2 / hbar^2 - gamma a1)/a^2 + S delta
    offset = gamma a0 hbar^2/2m0 (eV), S = B + 2 gamma a0/a^2,
    P = 2 b1/alpha - 2 gamma a1/a^2, Q = B + gamma a0/a^2.

    In r-space: -u'' + a^2 (beta1 z^2 - beta2 z + c0)/(1 - delta z)^2 u
    = (2 m(r) E / hbar^2) u, with c0 = (offset + V3)/(hbar^2 a^2/2m0).
    """
    l = np.asarray(l, dtype=float)
    if not ((l >= 0) & (l % 1 == 0)).all():
        raise DomainError(f"l must be a non-negative integer, got {l}")
    h22m = hbar2_over_2mu(mm.m0)
    big_k = h22m * p.a**2
    pc = pekeris_coefficients(p.alpha)
    gamma = l * (l + 1) / p.r_e**2
    gamma_over_a2 = l * (l + 1) / p.alpha**2
    base = 1.0 - 2.0 * pc.b0 / p.alpha
    s = base + 2.0 * gamma_over_a2 * pc.a0
    pp = 2.0 * pc.b1 / p.alpha - 2.0 * gamma_over_a2 * pc.a1
    q = base + gamma_over_a2 * pc.a0
    beta1 = (p.v1 + h22m * gamma * pc.a2) / big_k + pp * mm.delta + q * mm.delta**2
    beta2 = (p.v2 - h22m * gamma * pc.a1) / big_k + s * mm.delta
    return beta1, beta2, h22m * gamma * pc.a0


def quantize(n, beta1, beta2, delta: float) -> SpectrumGrid:
    """Quantized eps_nl, xi and den over broadcast (n, beta1, beta2) arrays.

    delta > 0:  eps = (1/2) [n(n+1) delta - 2(n+1/2) sqrt(beta1) + beta2]
                            / [sqrt(beta1) - (n+1/2) delta]
                xi = sqrt(1 + 4 eps^2 + (4/delta)(beta1/delta - beta2))
    delta = 0:  eps = beta2 / (2 sqrt(beta1)) - (n + 1/2)

    A negative, fractional or non-finite n raises DomainError naming the first.
    """
    n, beta1, beta2 = (np.asarray(x, dtype=float) for x in (n, beta1, beta2))
    shape = np.broadcast_shapes(n.shape, beta1.shape, beta2.shape)
    with np.errstate(all="ignore"):
        bad = ~((n >= 0) & (n % 1 == 0))  # also NaN and inf
        if bad.any():
            raise DomainError(f"n must be a non-negative integer, got {n[bad][0].item()!r}")
        sqrt_b1 = np.sqrt(beta1)
        den = np.broadcast_to(sqrt_b1 - (n + 0.5) * delta, shape)  # beta2 may widen it
        if delta == 0.0:
            fault = np.where(beta1 > 0.0, np.zeros(shape, dtype=int), FAULT_BETA1)
            eps = beta2 / (2.0 * sqrt_b1) - (n + 0.5)
            xi_sq = np.full(shape, np.inf)
        else:
            eps = 0.5 * (n * (n + 1) * delta - 2.0 * (n + 0.5) * sqrt_b1 + beta2) / den
            xi_sq = 1.0 + 4.0 * np.square(eps) + (4.0 / delta) * (beta1 / delta - beta2)
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


def spectrum_grid(p: PotentialParams, mm: MassModel, n, l) -> SpectrumGrid:
    """eps, xi, den, energy and bound over broadcast n x l arrays.

    E = offset - (hbar^2 a^2/2m0) eps^2, with the offset of ``strengths``,
    below the dissociation limit (add p.v3 for the literal well value).
    """
    mm = _evaluated_mass(mm)
    return _energies(p, mm, n, strengths(p, mm, l))


def _energies(p: PotentialParams, mm: MassModel, n, reduced) -> SpectrumGrid:
    """``spectrum_grid`` of an evaluated mass model from its ``strengths`` result."""
    beta1, beta2, offset = reduced
    qz = quantize(n, beta1, beta2, mm.delta)
    with np.errstate(over="ignore"):  # an overflowed energy is inf; callers check
        # np.square, as on an array: the scalar power of a 0-d eps can round differently
        eps_sq = np.square(qz.eps)
        energy = offset - hbar2_over_2mu(mm.m0) * p.a**2 * eps_sq
    return replace(qz, energy=energy)


def _ladder_length(reduced, delta: float) -> int:
    """Closed-form count of the leading n with eps_n > EPS_TIE_TOL and den_n > 0.

    At delta = 0, eps_n = eps_0 - n.  For delta > 0, den_n > 0 below
    n = sqrt(beta1)/delta - 1/2, and the sign of eps_n follows the numerator
    delta n^2 + (delta - 2 sqrt(beta1)) n + beta2 - sqrt(beta1), positive
    below its smaller root.  Raises DomainError past MAX_LADDER_LENGTH.
    """
    beta1, beta2 = float(reduced[0]), float(reduced[1])
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
    if not edge <= MAX_LADDER_LENGTH:  # also an infinite edge
        raise DomainError(f"the ladder has more than {MAX_LADDER_LENGTH} bound levels,"
                          " more than a float can index")
    return max(0, math.ceil(edge - EPS_TIE_TOL))


def ladder_length(p: PotentialParams, mm: MassModel, l: int) -> int:
    """Closed-form count of the bound states of one l, without building them."""
    mm = _evaluated_mass(mm)
    return _ladder_length(strengths(p, mm, l), mm.delta)


def bound_ladder(p: PotentialParams, mm: MassModel, l: int) -> SpectrumGrid:
    """Bound states n = 0, 1, ... of one l, up to the first unbound or failing n.

    The candidates are the closed-form count plus one, so rounding at the
    ladder edge cannot cut it short; the bound rule then picks the prefix.
    """
    mm = _evaluated_mass(mm)
    reduced = strengths(p, mm, l)
    return _bound_prefix(p, mm, reduced, _ladder_length(reduced, mm.delta))


def _bound_prefix(p: PotentialParams, mm: MassModel, reduced, count: int) -> SpectrumGrid:
    """``bound_ladder`` of an evaluated mass model, from its ``strengths`` result and count."""
    grid = _energies(p, mm, np.arange(count + 1), reduced)
    unbound = np.flatnonzero(~grid.bound)
    return grid[: unbound[0] if unbound.size else count + 1]
