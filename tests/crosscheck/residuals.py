"""Residuals of the transformed radial equation for the closed-form profiles,
and the state shape and normalization constant the profile tests read."""

import math

import numpy as np

from qmorse import MassModel, PotentialParams, QuantumState
from qmorse.specfun import genlaguerre_poly, jacobi_poly
from qmorse.spectrum import quantize, strengths
from qmorse.wavefunctions import _bound_state, _log_norm

from .series import genlaguerre_poly_deriv, jacobi_poly_deriv


def state_shape(p: PotentialParams, mm: MassModel, state: QuantumState):
    """(eps, xi, beta1, beta2) of one state of the closed form at mm.delta, unrouted."""
    beta1, beta2, _ = map(float, strengths(p, mm, state.l))
    qz = quantize(state.n, beta1, beta2, mm.delta).raise_fault()
    return float(qz.eps), float(qz.xi), beta1, beta2


def log_norm(p: PotentialParams, mm: MassModel, state: QuantumState) -> float:
    """log N of one bound state's u-profile, the constant ``radial_wavefunction`` applies.

    Routed as ``radial_wavefunction`` routes the state; raises
    ``NonNormalizableError`` for a state that is not bound.
    """
    return _log_norm(p, state.n, *_bound_state(p, mm, state))


def transformed_residual_constant_mass(p: PotentialParams, m0: float, n: int, l: int, z_grid):
    """Max-norm relative residual of the transformed equation for the Laguerre profile.

    Checks u'' + u'/z + (-beta1 z^2 + beta2 z - eps^2)/z^2 u = 0 with all
    derivatives taken analytically (Laguerre derivative identities).
    """
    beta1, beta2, _ = map(float, strengths(p, MassModel(m0=m0, delta=0.0), l))
    eps = float(quantize(n, beta1, beta2, 0.0).raise_fault().eps)
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


def transformed_residual_pdm(p: PotentialParams, mm: MassModel, state: QuantumState, z_grid):
    """Same residual check for the Jacobi profile of the varying-mass problem."""
    eps, xi, beta1, beta2 = state_shape(p, mm, state)
    delta = mm.delta
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
    potential_term = (-beta1 * z**2 + beta2 * z - eps**2) / (z * w) ** 2 * u
    residual = upp + up / z + potential_term
    scale = np.maximum.reduce([np.abs(upp), np.abs(up / z), np.abs(potential_term)])
    return float(np.max(np.abs(residual) / np.where(scale > 0, scale, 1.0)))
