"""Radial wavefunction evaluation and normalization.

``radial_wavefunction`` evaluates one state's u and psi.  Varying-mass
states are Jacobi-polynomial profiles in z = exp(-a (r - r_e)); constant-mass
states are Laguerre profiles in y = 2 sqrt(beta1) z.  Both normalization
constants are exact: the norm integral over the transformed domain is a
Jacobi or Laguerre orthogonality integral, evaluated with lgamma
(``pdm_log_norm``, ``constant_mass_log_norm``).  Quadrature and the paper's
printed 3F2 series constant are cross-checks kept in the tests.

Amplitudes for large eps (deep wells support eps of a few hundred) are
assembled in the log domain to avoid overflow.  Where the polynomial
recurrence overflows a float all the same (huge n), ``radial_wavefunction``
raises ``OverflowError`` instead of returning NaN; past the recurrence work
bound (``specfun.MAX_RECURRENCE_WORK``) it raises ``DomainError`` before the
recurrence runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, MassPoleError, NonNormalizableError
from .potential import MassModel, PotentialParams, mass
from .spectrum import QuantumState, _evaluated_mass, quantize, strengths
from .specfun import genlaguerre_poly, jacobi_poly, log_gamma, log_gamma_ratio
from .units import UNITS, UnitSystem


@dataclass(frozen=True)
class PdmShape:
    """Shape parameters of one varying-mass state."""

    eps: float
    xi: float
    beta1: float
    beta2: float
    delta: float


def _normalizable(p: PotentialParams, mm: MassModel, n: int, l: int, units: UnitSystem):
    """(eps, xi, beta1, beta2) of a bound state of the closed form at mm.delta."""
    beta1, beta2 = map(float, strengths(p, mm, l, units))
    qz = quantize(n, beta1, beta2, mm.delta).raise_fault()
    if not qz.bound:
        raise NonNormalizableError(
            f"state n={n}, l={l} has eps={float(qz.eps)}, den={float(qz.den)}: "
            "not normalizable (needs eps > 0 and den > 0)"
        )
    return float(qz.eps), float(qz.xi), beta1, beta2


def pdm_shape(
    p: PotentialParams, mm: MassModel, state: QuantumState, units: UnitSystem = UNITS
) -> PdmShape:
    if not 0.0 < mm.delta < 1.0:
        raise DomainError("varying-mass wavefunctions require 0 < delta < 1")
    eps, xi, beta1, beta2 = _normalizable(p, mm, state.n, state.l, units)
    return PdmShape(eps=eps, xi=xi, beta1=beta1, beta2=beta2, delta=mm.delta)


def _log_z(p: PotentialParams, r: np.ndarray) -> np.ndarray:
    """log z = -a (r - r_e) in extended precision.

    The amplitudes are exp of log sums that reach a few hundred for deep
    wells; one float64 ulp of such a sum is 1e-14 relative in the amplitude.
    """
    return -p.a * (r.astype(np.longdouble) - p.r_e)


def _require_finite(out: np.ndarray, n: int) -> None:
    if not np.isfinite(out).all():
        raise OverflowError(f"state n={n} overflows a float: amplitudes are not finite")


def _pdm_log_norm(shape: PdmShape, n: int, a: float) -> float:
    """-(1/2) log of int u^2 dr over the transformed domain 0 < z < 1/delta.

    dr = -dz/(a z); with x = 1 - 2 delta z the integral is
    (1/a) (2 delta)^{-2 eps} 2^{-1-xi} int_{-1}^{1} (1-x)^{2 eps - 1} (1+x)^{1+xi} P_n^2 dx.
    Splitting 1 + x = 2 - (1 - x) leaves twice the same integral with weight
    (1-x)^{2 eps - 1} (1+x)^xi minus the Jacobi norm; both are standard, and
    together they give

        delta^{-2 eps} Gamma(n+2eps+1) Gamma(n+xi+1) (2n+xi+1)
            / (a n! Gamma(n+2eps+xi+1) 2eps (2n+2eps+xi+1)).

    The domain ends at the mass pole; when the pole lies at r < 0 it takes
    in the profile's tail beyond r = 0 as well.
    """
    eps, xi = shape.eps, shape.xi
    log_integral = (
        -2.0 * eps * math.log(shape.delta) - math.log(a)
        + log_gamma(n + 2.0 * eps + 1.0) - log_gamma(n + 1.0)
        - log_gamma_ratio(n + xi + 1.0, 2.0 * eps)
        - math.log(2.0 * eps) - math.log1p(2.0 * eps / (2.0 * n + xi + 1.0))
    )
    return -0.5 * log_integral


def pdm_log_norm(
    p: PotentialParams, mm: MassModel, state: QuantumState, units: UnitSystem = UNITS
) -> float:
    """log of the normalization constant of the varying-mass u-profile."""
    return _pdm_log_norm(pdm_shape(p, mm, state, units), state.n, p.a)


def _jacobi_profile(p: PotentialParams, mm: MassModel, state: QuantumState, r: np.ndarray,
                    units: UnitSystem) -> np.ndarray:
    """u(r) = N z^eps (1 - delta z)^{(1+xi)/2} P_n^{(2 eps, xi)}(1 - 2 delta z), 0 < delta < 1.

    N is the closed-form constant of ``pdm_log_norm``.
    """
    shape = pdm_shape(p, mm, state, units)
    z = np.exp(-p.a * (r - p.r_e))
    w = 1.0 - mm.delta * z
    if np.any(w <= 0.0):
        raise MassPoleError("requested r reaches the mass pole (delta z >= 1)")
    log_n = _pdm_log_norm(shape, state.n, p.a)
    log_w = np.log(w.astype(np.longdouble))
    with np.errstate(all="ignore"):  # a non-finite amplitude raises below
        poly = jacobi_poly(state.n, 2.0 * shape.eps, shape.xi, 1.0 - 2.0 * mm.delta * z)
        out = np.exp(log_n + shape.eps * _log_z(p, r)
                     + 0.5 * (shape.xi + 1.0) * log_w).astype(float) * poly
    _require_finite(out, state.n)
    return out


def _cm_eps_beta(p: PotentialParams, m0: float, n: int, l: int, units: UnitSystem):
    eps, _, beta1, _ = _normalizable(p, MassModel(m0=m0), n, l, units)
    return eps, beta1


def _cm_log_norm(eps: float, beta1: float, n: int, a: float) -> float:
    """-(1/2) log of int R^2 dr over the transformed domain 0 < y < infinity.

    int R^2 dr = (1/a) (2 sqrt(beta1))^{-2 eps} int y^{2 eps - 1} e^{-y} L^2 dy
               = (1/a) (2 sqrt(beta1))^{-2 eps} Gamma(n+2eps+1) / (n! 2eps);
    the domain takes in the profile's tail beyond r = 0, where y > 2 sqrt(beta1) e^alpha.
    """
    log_integral = (
        -math.log(a) - 2.0 * eps * math.log(2.0 * math.sqrt(beta1))
        + log_gamma(n + 2.0 * eps + 1.0) - log_gamma(n + 1.0) - math.log(2.0 * eps)
    )
    return -0.5 * log_integral


def constant_mass_log_norm(
    p: PotentialParams, m0: float, n: int, l: int = 0, units: UnitSystem = UNITS
) -> float:
    """log of the normalization constant of R(r)."""
    eps, beta1 = _cm_eps_beta(p, m0, n, l, units)
    return _cm_log_norm(eps, beta1, n, p.a)


def _laguerre_profile(p: PotentialParams, mm: MassModel, state: QuantumState, r: np.ndarray,
                      units: UnitSystem) -> np.ndarray:
    """R(r) = N (2 sqrt(beta1))^{-eps} y^eps e^{-y/2} L_n^{2 eps}(y), y = 2 sqrt(beta1) z.

    N is the closed-form constant of ``constant_mass_log_norm``.
    """
    n = state.n
    eps, beta1 = _cm_eps_beta(p, mm.m0, n, state.l, units)
    y = 2.0 * math.sqrt(beta1) * np.exp(-p.a * (r - p.r_e))
    log_n = _cm_log_norm(eps, beta1, n, p.a)
    with np.errstate(all="ignore"):  # a non-finite amplitude raises below
        out = np.exp(log_n + eps * _log_z(p, r) - 0.5 * y).astype(float) \
            * genlaguerre_poly(n, 2.0 * eps, y)
    _require_finite(out, n)
    return out


def radial_wavefunction(p: PotentialParams, mm: MassModel, state: QuantumState, r,
                        units: UnitSystem = UNITS):
    """Normalized amplitudes (u, psi) of one bound state at separation r.

    The mass model is routed as the energies are (``spectrum._evaluated_mass``):
    a Jacobi profile for delta >= DELTA_CROSSOVER, else the constant-mass
    Laguerre profile.  psi(r) = u(r) sqrt(m(r)/m0) / r.  Scalar r gives two
    floats, array r two arrays.  Raises ``OverflowError`` where u or psi is
    not finite.
    """
    mm = _evaluated_mass(mm)
    arr = np.asarray(r, dtype=float)
    if mm.delta > 0.0:
        u = _jacobi_profile(p, mm, state, arr, units)
        m_of_r, _, _ = mass(mm, p, arr)
        factor = np.sqrt(m_of_r / mm.m0)
    else:
        u = _laguerre_profile(p, mm, state, arr, units)
        factor = 1.0
    with np.errstate(all="ignore"):
        psi = u * factor / arr
    if not np.isfinite(psi).all():  # u is finite; 1/r overflows at a subnormal r
        raise OverflowError(f"psi overflows a float at r={float(np.min(arr))!r}")
    return (float(u), float(psi)) if np.isscalar(r) else (u, psi)


def node_count(values, rel_tol: float = 1e-9) -> int:
    """Interior sign changes of a sampled profile, ignoring near-zero samples."""
    arr = np.asarray(values, dtype=float)
    scale = np.max(np.abs(arr))
    if scale == 0.0:
        return 0
    signs = np.sign(arr[np.abs(arr) > rel_tol * scale])
    return int(np.sum(signs[1:] * signs[:-1] < 0))
