"""The oracle's matrix assembled whole and solved densely, with its vectors.

``dense_eigh(prob, cfg)`` builds the same 25-point stencil on the mapped log
grid of ``cfg`` as ``qmorse.oracle`` does (``dense_matrix`` returns that matrix
alone), but forms the grid weights here from
the closed-form derivatives of X = a t + b w tanh((t - t_m)/w), fills the full
symmetric matrix, and solves it with numpy's dense ``eigh`` instead of the
banded LAPACK solver.  It gives the eigenvalue check of the banded solve and
the oracle's eigenvectors, which the production path does not compute.
"""

import math

import numpy as np
from scipy.linalg import toeplitz

from qmorse.oracle import KINETIC_BAND


def _assembled(prob, cfg):
    """(r, dr/dx, h, B^^{-1/2}, the dense matrix) of the log-grid problem on ``cfg``."""
    origin, gmap = prob.origin, cfg.grid_map
    t_lo, t_hi = (math.log(r - origin) for r in (cfg.r_min, cfg.r_max))
    x_lo, x_hi = gmap.x(t_lo), gmap.x(t_hi)
    n = cfg.grid_points
    h = (x_hi - x_lo) / (n + 1)
    t = gmap.t(x_lo + h * np.arange(1, n + 1), t_lo, t_hi)
    s = (t - gmap.t_m) / gmap.width
    sech2, tanh = 1.0 / np.cosh(s) ** 2, np.tanh(s)
    d1 = gmap.a + gmap.b * sech2  # X', X'' and X'''
    d2 = -2.0 * gmap.b / gmap.width * sech2 * tanh
    d3 = 2.0 * gmap.b / gmap.width**2 * sech2 * (3.0 * tanh**2 - 1.0)
    r_minus_origin = np.exp(t)
    r = origin + r_minus_origin
    dr_dx = r_minus_origin / d1
    # W^_x = (e^{2t} W + 1/4)/X'^2 + (X' X'''/2 - 3 X''^2/4)/X'^4, B^_x = e^{2t} B/X'^2
    w, b = prob.wb(r)
    w_hat = w * dr_dx**2 + 0.25 / d1**2 + (0.5 * d1 * d3 - 0.75 * d2**2) / d1**4
    b_hat = b * dr_dx**2
    first_row = np.zeros(n)
    first_row[:len(KINETIC_BAND)] = KINETIC_BAND / h**2
    scale = 1.0 / np.sqrt(b_hat)
    dense = (toeplitz(first_row) + np.diag(w_hat)) * scale[:, None] * scale[None, :]
    return r, dr_dx, h, scale, dense


def dense_matrix(prob, cfg):
    """The symmetric matrix H of the log-grid problem on ``cfg``, whole."""
    return _assembled(prob, cfg)[-1]


def dense_eigh(prob, cfg):
    """(r, weights, values, vectors, floor) of the log-grid problem on ``cfg``.

    r holds the grid radii and weights the quadrature weights (dr/dx) h there;
    values are every eigenvalue (eV, ascending) and the columns of vectors the
    radial functions u, back-transformed from psi by u = (dr/dx)^{1/2} psi and
    normalized so that sum(weights u^2) = 1.  floor is the matrix roundoff
    16 eps ||H||_inf.
    """
    r, dr_dx, h, scale, dense = _assembled(prob, cfg)
    values, vectors = np.linalg.eigh(dense)
    weights = dr_dx * h
    u = vectors * (scale * np.sqrt(dr_dx))[:, None]  # psi = B^^{-1/2} y, then u
    u /= np.sqrt(weights @ u**2)
    floor = 16.0 * np.finfo(float).eps * np.max(np.sum(np.abs(dense), axis=1))
    return r, weights, values, u, floor
