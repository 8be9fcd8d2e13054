"""Radial wavefunction evaluation and normalization.

Varying-mass states are Jacobi-polynomial profiles in z = exp(-a (r - r_e));
constant-mass states are Laguerre profiles in y = 2 sqrt(beta1) z.  Both
normalization constants are exact: the norm integral over the transformed
domain is a Jacobi or Laguerre orthogonality integral, evaluated with lgamma
(``pdm_log_norm``, ``constant_mass_log_norm``).  Quadrature and the paper's
printed 3F2 series constant are cross-checks kept in the tests.

Amplitudes for large eps (deep wells support eps of a few hundred) are
assembled in the log domain to avoid overflow.  Where the polynomial
recurrence overflows a float all the same (huge n), both amplitudes raise
``OverflowError`` instead of returning NaN.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, MassPoleError, NonNormalizableError
from .potential import MassModel, PotentialParams
from .special_cases import (
    GeneralizedVibrationalCase,
    NonPtCase,
    PtType1Case,
    PtType2Case,
    gv_lambda,
    _kappa,
)
from .spectrum import QuantumState, beta_static, epsilon_constant_mass, quantize
from .specfun import (
    genlaguerre_poly,
    genlaguerre_poly_deriv,
    jacobi_poly,
    jacobi_poly_deriv,
    log_gamma,
    log_gamma_ratio,
)
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
    beta1, beta2 = beta_static(p, mm, l, units)
    qz = quantize(n, beta1, beta2, mm.delta)
    qz.raise_fault()
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


def pdm_wavefunction(
    p: PotentialParams,
    mm: MassModel,
    state: QuantumState,
    r,
    units: UnitSystem = UNITS,
    kind: str = "u",
    normalized: bool = True,
):
    """Varying-mass amplitude at separation r.

    kind="u":   u(r) = N z^eps (1 - delta z)^{(1+xi)/2} P_n^{(2 eps, xi)}(1 - 2 delta z)
    kind="psi": psi(r) = u(r) sqrt(m(r)/m0) / r, i.e. the same profile with the
                bracket exponent lowered to (xi-1)/2 and a 1/r factor.

    N is the closed-form constant of ``pdm_log_norm``; with normalized=False
    the bare profile (N = 1) is returned.  Raises ``OverflowError`` where the
    amplitude is not finite.
    """
    shape = pdm_shape(p, mm, state, units)
    arr = np.asarray(r, dtype=float)
    z = np.exp(-p.a * (arr - p.r_e))
    w = 1.0 - mm.delta * z
    if np.any(w <= 0.0):
        raise MassPoleError("requested r reaches the mass pole (delta z >= 1)")
    if kind not in ("u", "psi"):
        raise DomainError(f"kind must be 'u' or 'psi', got {kind!r}")
    exponent = 0.5 * (shape.xi + (1.0 if kind == "u" else -1.0))
    log_n = _pdm_log_norm(shape, state.n, p.a) if normalized else 0.0
    log_w = np.log(w.astype(np.longdouble))
    with np.errstate(all="ignore"):  # a non-finite amplitude raises below
        poly = jacobi_poly(state.n, 2.0 * shape.eps, shape.xi, 1.0 - 2.0 * mm.delta * z)
        out = np.exp(log_n + shape.eps * _log_z(p, arr) + exponent * log_w).astype(float) * poly
        if kind == "psi":
            out = out / arr
    _require_finite(out, state.n)
    return float(out) if np.isscalar(r) else out


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


def constant_mass_wavefunction(
    p: PotentialParams,
    m0: float,
    n: int,
    r,
    l: int = 0,
    units: UnitSystem = UNITS,
    normalized: bool = True,
):
    """Constant-mass amplitude R(r) = N (2 sqrt(beta1))^{-eps} y^eps e^{-y/2} L_n^{2 eps}(y).

    y = 2 sqrt(beta1) exp(-a (r - r_e)).  N is the closed-form constant of
    ``constant_mass_log_norm``; with normalized=False the bare profile (N = 1)
    is returned.  Raises ``OverflowError`` where the amplitude is not finite.
    """
    eps, beta1 = _cm_eps_beta(p, m0, n, l, units)
    arr = np.asarray(r, dtype=float)
    y = 2.0 * math.sqrt(beta1) * np.exp(-p.a * (arr - p.r_e))
    log_n = _cm_log_norm(eps, beta1, n, p.a) if normalized else 0.0
    with np.errstate(all="ignore"):  # a non-finite amplitude raises below
        out = np.exp(log_n + eps * _log_z(p, arr) - 0.5 * y).astype(float) \
            * genlaguerre_poly(n, 2.0 * eps, y)
    _require_finite(out, n)
    return float(out) if np.isscalar(r) else out


def node_count(values, rel_tol: float = 1e-9) -> int:
    """Interior sign changes of a sampled profile, ignoring near-zero samples."""
    arr = np.asarray(values, dtype=float)
    scale = np.max(np.abs(arr))
    if scale == 0.0:
        return 0
    signs = np.sign(arr[np.abs(arr) > rel_tol * scale])
    return int(np.sum(signs[1:] * signs[:-1] < 0))


def transformed_residual_constant_mass(
    p: PotentialParams, m0: float, n: int, l: int, z_grid, units: UnitSystem = UNITS
):
    """Max-norm relative residual of the transformed equation for the Laguerre profile.

    Checks u'' + u'/z + (-beta1 z^2 + beta2 z - eps^2)/z^2 u = 0 with all
    derivatives taken analytically (Laguerre derivative identities).
    """
    beta1, beta2 = beta_static(p, MassModel(m0=m0, delta=0.0), l, units)
    eps = epsilon_constant_mass(n, beta1, beta2)
    c = 2.0 * math.sqrt(beta1)
    z = np.asarray(z_grid, dtype=float)
    y = c * z
    two_eps = 2.0 * eps
    f0 = genlaguerre_poly(n, two_eps, y)
    f1 = genlaguerre_poly_deriv(n, two_eps, y, 1)
    f2 = genlaguerre_poly_deriv(n, two_eps, y, 2)
    g = z**eps * np.exp(-0.5 * y)
    gp_over_g = eps / z - 0.5 * c
    gpp_over_g = gp_over_g**2 - eps / z**2
    u = g * f0
    up = g * (gp_over_g * f0 + c * f1)
    upp = g * (gpp_over_g * f0 + 2.0 * gp_over_g * c * f1 + c * c * f2)
    potential_term = (-beta1 * z**2 + beta2 * z - eps**2) / z**2 * u
    residual = upp + up / z + potential_term
    scale = np.maximum.reduce([np.abs(upp), np.abs(up / z), np.abs(potential_term)])
    return float(np.max(np.abs(residual) / np.where(scale > 0, scale, 1.0)))


def transformed_residual_pdm(
    p: PotentialParams, mm: MassModel, state: QuantumState, z_grid, units: UnitSystem = UNITS
):
    """Same residual check for the Jacobi profile of the varying-mass problem."""
    shape = pdm_shape(p, mm, state, units)
    eps, xi, delta = shape.eps, shape.xi, mm.delta
    z = np.asarray(z_grid, dtype=float)
    w = 1.0 - delta * z
    x = 1.0 - 2.0 * delta * z
    s = 0.5 * (1.0 + xi)
    n = state.n
    f0 = jacobi_poly(n, 2.0 * eps, xi, x)
    f1 = -2.0 * delta * jacobi_poly_deriv(n, 2.0 * eps, xi, x, 1)
    f2 = 4.0 * delta * delta * jacobi_poly_deriv(n, 2.0 * eps, xi, x, 2)
    h = z**eps * w**s
    hp_over_h = eps / z - s * delta / w
    hpp_over_h = hp_over_h**2 - eps / z**2 - s * delta**2 / w**2
    u = h * f0
    up = h * (hp_over_h * f0 + f1)
    upp = h * (hpp_over_h * f0 + 2.0 * hp_over_h * f1 + f2)
    potential_term = (-shape.beta1 * z**2 + shape.beta2 * z - eps**2) / (z * w) ** 2 * u
    residual = upp + up / z + potential_term
    scale = np.maximum.reduce([np.abs(upp), np.abs(up / z), np.abs(potential_term)])
    return float(np.max(np.abs(residual) / np.where(scale > 0, scale, 1.0)))


# --- special-case profiles -------------------------------------------------

def _check_superscript(two_s) -> None:
    # the normalizability bound applies to the real-parameter profiles only;
    # complex superscripts (non-Hermitian variants) are formal closed forms
    if isinstance(two_s, complex):
        if two_s.imag != 0.0:
            return
        two_s = two_s.real
    if two_s <= -1.0:
        raise NonNormalizableError(
            f"Laguerre superscript {two_s} <= -1: profile not normalizable"
        )


def special_case_wavefunction(case_id: str, case, n: int, x, units: UnitSystem = UNITS):
    """Unnormalized profile R_n(x) of the named special case.

    x is the dimensionless displacement (r - r_e)/r_e.  The two PT-symmetric
    variants are evaluated in complex arithmetic.
    """
    if case_id == "generalized_vibrational":
        assert isinstance(case, GeneralizedVibrationalCase)
        lam = gv_lambda(case, units)
        s = lam * case.q - n - 0.5
        _check_superscript(2.0 * s)
        arg = 2.0 * lam * np.exp(-case.alpha * np.asarray(x, dtype=float))
        out = np.exp(-case.alpha * s * np.asarray(x, dtype=float) - 0.5 * arg) \
            * genlaguerre_poly(n, 2.0 * s, arg)
        return float(out) if np.isscalar(x) else out
    if case_id == "non_pt":
        assert isinstance(case, NonPtCase)
        kappa1 = _kappa(case.mu, case.r_e, case.D, units)
        s = 0.5 * case.d_hat * kappa1 - 0.5 - n
        _check_superscript(2.0 * s)
        ex = np.exp(-np.asarray(x, dtype=float))
        out = (2.0 * kappa1) ** (-s) * (2.0 * kappa1 * ex) ** s \
            * np.exp(-kappa1 * ex) * genlaguerre_poly(n, 2.0 * s, 2.0 * kappa1 * ex)
        return float(out) if np.isscalar(x) else out
    if case_id == "pt_type1":
        assert isinstance(case, PtType1Case)
        kappa2 = -1j * _kappa(case.mu, case.r_e, case.D, units)
        s = 0.5 * case.d_hat * kappa2 - 0.5 - n
        _check_superscript(2.0 * s)
        return _complex_profile(kappa2, s, n, x, phase=1.0)
    if case_id == "pt_type2":
        assert isinstance(case, PtType2Case)
        kappa3 = complex(_kappa(case.mu, case.r_e, case.D, units))
        s = 0.5 * (math.sqrt(case.D) / case.omega) * kappa3 - 0.5 - n
        _check_superscript(2.0 * s)
        return _complex_profile(kappa3, s, n, x, phase=case.alpha)
    raise DomainError(f"unknown special case {case_id!r}")


def _complex_profile(kappa, s, n: int, x, phase: float):
    """(2 kappa)^{-s} (2 kappa e^{-i phase x})^s exp(-kappa e^{-i phase x}) L_n^{2s}(...)."""
    def one(xv: float) -> complex:
        ex = cmath.exp(-1j * phase * xv)
        arg = 2.0 * kappa * ex
        prefactor = (2.0 * kappa) ** (-s) * arg**s
        return prefactor * cmath.exp(-kappa * ex) * genlaguerre_poly(n, 2.0 * s, arg)

    if np.isscalar(x):
        return one(float(x))
    return np.array([one(float(v)) for v in np.asarray(x, dtype=float)])
