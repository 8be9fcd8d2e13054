"""Radial wavefunction evaluation and normalization.

Varying-mass states are Jacobi-polynomial profiles in z = exp(-a (r - r_e));
constant-mass states are Laguerre profiles in y = 2 sqrt(beta1) z.  Quadrature
normalization (over the z- or y-substituted semi-infinite domain) is the
authoritative constant; the series-form constant is evaluated verbatim as a
cross-check and reported, never asserted, because its closed form contains
Gamma(n) and is ill-defined at n = 0.

Amplitudes for large eps (deep wells support eps of a few hundred) are
assembled in the log domain to avoid overflow.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .errors import DomainError, MassPoleError, NonNormalizableError, SeriesDivergenceError
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
    hyp3f2,
    jacobi_poly,
    jacobi_poly_deriv,
    log_gamma,
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


def _z_of(p: PotentialParams, r):
    return np.exp(-p.a * (np.asarray(r, dtype=float) - p.r_e))


def pdm_wavefunction(
    p: PotentialParams,
    mm: MassModel,
    state: QuantumState,
    r,
    units: UnitSystem = UNITS,
    kind: str = "u",
    normalization: float | None = None,
):
    """Varying-mass amplitude at separation r.

    kind="u":   u(r) = z^eps (1 - delta z)^{(1+xi)/2} P_n^{(2 eps, xi)}(1 - 2 delta z)
    kind="psi": psi(r) = u(r) sqrt(m(r)/m0) / r, i.e. the same profile with the
                bracket exponent lowered to (xi-1)/2 and a 1/r factor.

    Unnormalized unless a normalization constant is supplied.
    """
    shape = pdm_shape(p, mm, state, units)
    z = _z_of(p, r)
    w = 1.0 - mm.delta * z
    if np.any(w <= 0.0):
        raise MassPoleError("requested r reaches the mass pole (delta z >= 1)")
    poly = jacobi_poly(state.n, 2.0 * shape.eps, shape.xi, 1.0 - 2.0 * mm.delta * z)
    if kind == "u":
        out = z**shape.eps * w ** (0.5 * (1.0 + shape.xi)) * poly
    elif kind == "psi":
        arr = np.asarray(r, dtype=float)
        out = z**shape.eps * w ** (0.5 * (shape.xi - 1.0)) * poly / arr
    else:
        raise DomainError(f"kind must be 'u' or 'psi', got {kind!r}")
    if normalization is not None:
        out = normalization * out
    return float(out) if np.isscalar(r) else out


@dataclass(frozen=True)
class PdmNormalization:
    """Quadrature-based constant (authoritative) and the series cross-check."""

    quadrature: float
    series: float | None
    series_converged: bool
    ratio: float | None
    note: str


def _pdm_norm_integral(p: PotentialParams, mm: MassModel, shape: PdmShape, n: int) -> float:
    """integral of u^2 dr over the physical domain, by the z-substitution.

    dr = -dz/(a z), so the integral is (1/a) int_0^{z_hi} z^{2 eps - 1}
    (1 - delta z)^{1 + xi} P^2 dz with z_hi = min(exp(alpha), 1/delta):
    the left r-boundary is r = 0 or, when the pole sits inside r > 0, the
    pole radius (the profile vanishes there).
    """
    z_hi = min(math.exp(p.alpha), 1.0 / mm.delta)
    two_eps = 2.0 * shape.eps
    s_exp = 1.0 + shape.xi

    def integrand(z):
        if z <= 0.0:
            return 0.0
        w = 1.0 - mm.delta * z
        if w <= 0.0:
            return 0.0
        poly = jacobi_poly(n, two_eps, shape.xi, 1.0 - 2.0 * mm.delta * z)
        return math.exp((two_eps - 1.0) * math.log(z) + s_exp * math.log(w)) * poly * poly

    # envelope peak of z^{2 eps}(1 - delta z)^{1+xi}: a good subdivision hint
    z_peak = (shape.eps / mm.delta) / (shape.eps + 0.5 * (1.0 + shape.xi))
    points = [z_peak] if 0.0 < z_peak < z_hi else None
    value, _ = quad(integrand, 0.0, z_hi, points=points, limit=500,
                    epsabs=0.0, epsrel=1e-12)
    return value / p.a


def _pdm_series_bracket(shape: PdmShape, n: int, alpha: float, max_terms: int = 10000):
    """Verbatim series bracket of the printed normalization constant.

    Returns (bracket, converged, note).  Gamma(n) makes n = 0 ill-defined.
    """
    if n == 0:
        return None, False, "series constant undefined at n = 0 (Gamma(0))"
    eps, xi = shape.eps, shape.xi
    prefactor_log = (
        log_gamma(2.0 * eps + 1.0) + log_gamma(xi + 2.0)
        - math.log(alpha) - eps * math.log(shape.delta) - log_gamma(n)
    )
    total = 0.0
    converged = False
    for pidx in range(max_terms):
        try:
            f32 = hyp3f2(
                pidx + 2.0 * eps, -n, n + 2.0 * eps + xi + 1.0,
                pidx + 2.0 * eps + xi + 2.0, 1.0 + 2.0 * eps, 1.0,
            )
        except SeriesDivergenceError:
            return None, False, "inner 3F2 did not converge"
        # log-domain magnitude of Gamma(n+p) (n+1+2eps+xi)_p / (p! (p+2eps) Gamma(p+2eps+xi+2))
        mag = (
            log_gamma(n + pidx)
            + log_gamma(n + 1.0 + 2.0 * eps + xi + pidx) - log_gamma(n + 1.0 + 2.0 * eps + xi)
            - log_gamma(pidx + 1.0) - math.log(pidx + 2.0 * eps)
            - log_gamma(pidx + 2.0 * eps + xi + 2.0)
        )
        term = (-1.0) ** pidx * math.exp(mag) * f32
        total += term
        if pidx > n and abs(term) <= 1e-16 * max(1.0, abs(total)):
            converged = True
            break
    if not converged:
        return None, False, f"outer series did not settle within {max_terms} terms"
    bracket = math.exp(prefactor_log) * total
    return bracket, True, ""


def pdm_normalization(
    p: PotentialParams, mm: MassModel, state: QuantumState, units: UnitSystem = UNITS
) -> PdmNormalization:
    """Normalization constant of the u-profile; quadrature is authoritative."""
    shape = pdm_shape(p, mm, state, units)
    integral = _pdm_norm_integral(p, mm, shape, state.n)
    if not integral > 0.0:
        raise NonNormalizableError("normalization integral is not positive")
    n_quad = 1.0 / math.sqrt(integral)
    bracket, converged, note = _pdm_series_bracket(shape, state.n, p.alpha)
    n_series = None
    if bracket is not None:
        if bracket > 0.0:
            n_series = bracket**-0.5
        else:
            note = f"series bracket is non-positive ({bracket:.3e}); no real constant"
    ratio = (n_series / n_quad) if n_series is not None else None
    return PdmNormalization(
        quadrature=n_quad, series=n_series, series_converged=converged,
        ratio=ratio, note=note,
    )


def _cm_eps_beta(p: PotentialParams, m0: float, n: int, l: int, units: UnitSystem):
    eps, _, beta1, _ = _normalizable(p, MassModel(m0=m0), n, l, units)
    return eps, beta1


def constant_mass_log_norm(
    p: PotentialParams, m0: float, n: int, l: int = 0, units: UnitSystem = UNITS
) -> float:
    """log of the normalization constant of R(r): everything in the log domain.

    integral R^2 dr = (1/a) (2 sqrt(beta1))^{-2 eps} int y^{2 eps - 1} e^{-y} L^2 dy,
    with y = 2 sqrt(beta1) z running up to 2 sqrt(beta1) exp(alpha) at r -> 0.
    """
    eps, beta1 = _cm_eps_beta(p, m0, n, l, units)
    two_eps = 2.0 * eps
    c = 2.0 * math.sqrt(beta1)
    y_hi = c * math.exp(p.alpha)
    y_peak = max(two_eps - 1.0, 1e-3)
    g_peak = (two_eps - 1.0) * math.log(y_peak) - y_peak

    def integrand(y):
        if y <= 0.0:
            return 0.0
        poly = genlaguerre_poly(n, two_eps, y)
        return math.exp((two_eps - 1.0) * math.log(y) - y - g_peak) * poly * poly

    points = [y_peak] if y_peak < y_hi else None
    rest, _ = quad(integrand, 0.0, y_hi, points=points, limit=500,
                   epsabs=0.0, epsrel=1e-12)
    log_integral = -math.log(p.a) - two_eps * math.log(c) + g_peak + math.log(rest)
    return -0.5 * log_integral


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

    y = 2 sqrt(beta1) exp(-a (r - r_e)).  With normalized=False the bare
    profile (N = 1) is returned.
    """
    eps, beta1 = _cm_eps_beta(p, m0, n, l, units)
    c = 2.0 * math.sqrt(beta1)
    z = _z_of(p, r)
    y = c * z
    log_n = constant_mass_log_norm(p, m0, n, l, units) if normalized else 0.0
    with np.errstate(divide="ignore"):
        log_part = log_n + eps * np.log(z) - 0.5 * y
    poly = genlaguerre_poly(n, 2.0 * eps, y)
    out = np.where(np.isfinite(log_part), np.exp(log_part), 0.0) * poly
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
