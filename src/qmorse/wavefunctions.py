"""Radial wavefunction evaluation and normalization.

``radial_wavefunction`` evaluates one state's u and psi, and ``log_norm`` its
normalization constant.  Each takes the state (eps, xi, den and the evaluated
delta) from ``spectrum.spectrum_grid``, so it is routed and judged bound as
the energies are.  There is one closed form: in z = exp(-a (r - r_e)),

    u(r) = N z^eps (1 - delta z)^{(1+xi)/2} P_n^{(2 eps, xi)}(1 - 2 delta z),

whose delta -> 0 limit is the constant-mass Laguerre profile
N z^eps e^{-y/2} L_n^{2 eps}(y), y = 2 sqrt(beta1) z.  N is exact on both
branches: the norm integral over the transformed domain is a Jacobi or
Laguerre orthogonality integral, evaluated with lgamma.  Quadrature and the
paper's printed 3F2 series constant are cross-checks kept in the tests.

Amplitudes for large eps (deep wells support eps of a few hundred) are
assembled in the log domain to avoid overflow.  Where the polynomial
recurrence overflows a float all the same (huge n), ``radial_wavefunction``
raises ``OverflowError`` instead of returning NaN; past the recurrence work
bound (``specfun.MAX_RECURRENCE_WORK``) it raises ``DomainError`` before the
recurrence runs.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import MassPoleError, NonNormalizableError
from .potential import MassModel, PotentialParams
from .spectrum import QuantumState, spectrum_grid
from .specfun import genlaguerre_poly, jacobi_poly, log_gamma, log_gamma_ratio


def _bound_state(p: PotentialParams, mm: MassModel, state: QuantumState):
    """(eps, xi, den, delta) of a bound state, delta as ``spectrum_grid`` evaluates it."""
    grid = spectrum_grid(p, mm, state.n, state.l).raise_fault()
    if not grid.bound:
        raise NonNormalizableError(
            f"state n={state.n}, l={state.l} has eps={float(grid.eps)}, den={float(grid.den)}: "
            "not normalizable (needs eps > 0 and den > 0)"
        )
    return float(grid.eps), float(grid.xi), float(grid.den), grid.delta


def _log_norm(p: PotentialParams, n: int, eps: float, xi: float, den: float,
              delta: float) -> float:
    """-(1/2) log of int u^2 dr over the transformed domain, at the evaluated delta.

    delta > 0: dr = -dz/(a z) over 0 < z < 1/delta; with x = 1 - 2 delta z
    the integral is
    (1/a) (2 delta)^{-2 eps} 2^{-1-xi} int_{-1}^{1} (1-x)^{2 eps - 1} (1+x)^{1+xi} P_n^2 dx.
    Splitting 1 + x = 2 - (1 - x) leaves twice the same integral with weight
    (1-x)^{2 eps - 1} (1+x)^xi minus the Jacobi norm; both are standard, and
    together they give

        delta^{-2 eps} Gamma(n+2eps+1) Gamma(n+xi+1) (2n+xi+1)
            / (a n! Gamma(n+2eps+xi+1) 2eps (2n+2eps+xi+1)).

    The domain ends at the mass pole; when the pole lies at r < 0 it takes
    in the profile's tail beyond r = 0 as well.

    delta = 0: over 0 < y < infinity, with den = sqrt(beta1),
    int R^2 dr = (1/a) (2 den)^{-2 eps} int y^{2 eps - 1} e^{-y} L^2 dy
               = (1/a) (2 den)^{-2 eps} Gamma(n+2eps+1) / (n! 2eps);
    the domain takes in the profile's tail beyond r = 0, where y > 2 den e^alpha.
    """
    if delta > 0.0:
        log_integral = (
            -2.0 * eps * math.log(delta) - math.log(p.a)
            + log_gamma(n + 2.0 * eps + 1.0) - log_gamma(n + 1.0)
            - log_gamma_ratio(n + xi + 1.0, 2.0 * eps)
            - math.log(2.0 * eps) - math.log1p(2.0 * eps / (2.0 * n + xi + 1.0))
        )
    else:
        log_integral = (
            -math.log(p.a) - 2.0 * eps * math.log(2.0 * den)
            + log_gamma(n + 2.0 * eps + 1.0) - log_gamma(n + 1.0) - math.log(2.0 * eps)
        )
    return -0.5 * log_integral


def log_norm(p: PotentialParams, mm: MassModel, state: QuantumState) -> float:
    """log N of one bound state's u-profile, routed as ``radial_wavefunction``.

    Raises ``NonNormalizableError`` for a state that is not bound.
    """
    return _log_norm(p, state.n, *_bound_state(p, mm, state))


def radial_wavefunction(p: PotentialParams, mm: MassModel, state: QuantumState, r):
    """Normalized amplitudes (u, psi) of one bound state at separation r.

    The state is routed as ``spectrum_grid`` routes the energies: the Jacobi
    profile for delta >= DELTA_CROSSOVER, else the constant-mass Laguerre
    profile.  psi(r) = u(r) sqrt(m(r)/m0) / r.  Scalar r gives two
    floats, array r two arrays.  Raises ``OverflowError`` where u or psi is
    not finite.
    """
    arr = np.asarray(r, dtype=float)
    n = state.n
    eps, xi, den, delta = _bound_state(p, mm, state)
    z = np.exp(-p.a * (arr - p.r_e))
    if delta > 0.0:
        w = 1.0 - delta * z
        if np.any(w <= 0.0):
            raise MassPoleError("requested r reaches the mass pole (delta z >= 1)")
        log_w = np.log(w.astype(np.longdouble))
    else:
        y = 2.0 * den * z
    log_n = _log_norm(p, n, eps, xi, den, delta)
    # log z in extended precision: the amplitudes are exp of log sums that
    # reach a few hundred for deep wells, where one float64 ulp of the sum is
    # 1e-14 relative in the amplitude
    log_z = -p.a * (arr.astype(np.longdouble) - p.r_e)
    with np.errstate(all="ignore"):  # a non-finite amplitude raises below
        if delta > 0.0:
            poly = jacobi_poly(n, 2.0 * eps, xi, 1.0 - 2.0 * delta * z)
            u = np.exp(log_n + eps * log_z + 0.5 * (xi + 1.0) * log_w).astype(float) * poly
        else:
            poly = genlaguerre_poly(n, 2.0 * eps, y)
            u = np.exp(log_n + eps * log_z - 0.5 * y).astype(float) * poly
    if not np.isfinite(u).all():
        raise OverflowError(f"state n={n} overflows a float: amplitudes are not finite")
    # sqrt(m/m0), with m formed from w as ``potential.mass`` forms it
    factor = np.sqrt(mm.m0 / w**2 / mm.m0) if delta > 0.0 else 1.0
    with np.errstate(all="ignore"):
        psi = u * factor / arr
    if not np.isfinite(psi).all():  # u is finite; 1/r overflows at a subnormal r
        raise OverflowError(f"psi overflows a float at r={float(np.min(arr))!r}")
    return (float(u), float(psi)) if np.isscalar(r) else (u, psi)
