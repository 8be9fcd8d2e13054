"""Independent finite-difference eigenvalue oracle.

Discretizes -u'' + W(r) u = E B(r) u, with B(r) = 2 m(r)/hbar^2, with
Dirichlet ends; A is the symmetric three-point stencil plus the diagonal of
W, B is diagonal and positive, and the generalized problem is reduced exactly
through B^{-1/2} A B^{-1/2} to a symmetric tridiagonal one.  Eigenvalues
converge at second order in the spacing; Richardson extrapolation over a grid
pair cancels the leading error and the pair difference provides the per-level
error estimate.

Grids.  Constant-mass problems use a uniform r grid.  Varying-mass problems
use a uniform grid in t = ln(r - r_p), with r_p the (possibly negative,
virtual) mass-pole radius: high levels of the reduced problem oscillate ever
faster toward the pole while their outer tails stretch toward large r, and
the log coordinate resolves both ends at once.  In a mapped coordinate the
Sturm-Liouville weight form -d/dt[(1/r') du/dt] + r' W u = E r' B u is
discretized, which keeps A symmetric tridiagonal and B diagonal.

Mode semantics.  centrifugal_mode / inverse_r_mode "exact" keep l(l+1)/r^2
and 1/r as they are; "pekeris" substitutes the second-order exponential
expansions.  mass_mode "pdm" with both expansions active solves the reduced
quadratic problem itself (the transformed equation whose eigenvalues the
closed form gives exactly); direct substitution into the untransformed
effective potential would leave delta-weighted cubic and quartic cross terms
behind that the quadratic reduction discards.  Set ``pdm_reduced=False`` for
that plain-substitution variant (diagnostics).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import DomainError
from .pekeris import pekeris_centrifugal, pekeris_coefficients, pekeris_inverse_r
from .potential import (
    MassModel,
    PotentialParams,
    mass,
    mass_pole_radius,
    morse_potential,
)
from .spectrum import SpectrumResult, bound_ladder, reduced_coefficients
from .units import UNITS, UnitSystem, hbar2_over_2mu


@dataclass(frozen=True)
class OracleConfig:
    r_min: float
    r_max: float
    grid_points: int = 4000
    centrifugal_mode: str = "pekeris"
    inverse_r_mode: str = "pekeris"
    mass_mode: str = "constant"
    richardson: bool = True
    want_vectors: bool = False
    pdm_reduced: bool = True

    def __post_init__(self):
        if not self.r_min > 0.0:
            raise DomainError("r_min must be positive")
        if not self.r_max > self.r_min:
            raise DomainError("r_max must exceed r_min")
        if self.grid_points < 500:
            raise DomainError("grid_points must be at least 500")
        if self.centrifugal_mode not in ("exact", "pekeris"):
            raise DomainError(f"bad centrifugal_mode {self.centrifugal_mode!r}")
        if self.inverse_r_mode not in ("exact", "pekeris"):
            raise DomainError(f"bad inverse_r_mode {self.inverse_r_mode!r}")
        if self.mass_mode not in ("constant", "pdm"):
            raise DomainError(f"bad mass_mode {self.mass_mode!r}")


@dataclass
class OracleSpectrum:
    """Bound levels (eV), Richardson-extrapolated, with per-level error estimates."""

    eigenvalues: np.ndarray
    error_estimates: np.ndarray
    coarse: np.ndarray
    fine: np.ndarray
    threshold: float
    config: OracleConfig
    grid: np.ndarray | None = None
    eigenvectors: np.ndarray | None = None


def continuum_threshold(
    p: PotentialParams, mm: MassModel, l: int, cfg: OracleConfig, units: UnitSystem = UNITS
) -> float:
    """r -> infinity limit of W/B: energies below it are bound."""
    h22m = hbar2_over_2mu(mm.m0, units)
    threshold = p.v3
    if cfg.centrifugal_mode == "pekeris":
        gamma = l * (l + 1) / p.r_e**2
        threshold += h22m * gamma * pekeris_coefficients(p.alpha).a0
    return threshold


def virtual_pole(p: PotentialParams, mm: MassModel) -> float:
    """Radius where delta z = 1 (may be negative); log-grid origin for pdm runs."""
    return p.r_e + math.log(mm.delta) / p.a


def build_w_and_b(
    p: PotentialParams, mm: MassModel, l: int, cfg: OracleConfig, units: UnitSystem = UNITS
):
    """Return callables W(r) [1/A^2] and B(r) [1/(eV A^2)] for the configuration."""
    inv_h22m = 1.0 / hbar2_over_2mu(mm.m0, units)  # = 2 m0 / hbar^2

    if cfg.mass_mode == "constant" or mm.delta == 0.0:

        def b_const(r):
            return inv_h22m * np.ones_like(np.asarray(r, dtype=float))

        def w_const(r):
            arr = np.asarray(r, dtype=float)
            if cfg.centrifugal_mode == "pekeris":
                cent = pekeris_centrifugal(p, l, arr)
            else:
                cent = l * (l + 1) / arr**2
            return cent + inv_h22m * morse_potential(p, arr)

        return w_const, b_const

    def b_pdm(r):
        m, _, _ = mass(mm, p, r)
        return m / mm.m0 * inv_h22m

    if cfg.pdm_reduced and cfg.centrifugal_mode == "pekeris" and cfg.inverse_r_mode == "pekeris":
        beta1, beta2, c0 = reduced_coefficients(p, mm, l, units)

        def w_reduced(r):
            z = np.exp(-p.a * (np.asarray(r, dtype=float) - p.r_e))
            w = 1.0 - mm.delta * z
            return p.a**2 * (beta1 * z**2 - beta2 * z + c0) / w**2

        return w_reduced, b_pdm

    def w_substituted(r):
        arr = np.asarray(r, dtype=float)
        m, m1, m2 = mass(mm, p, arr)
        if cfg.centrifugal_mode == "pekeris":
            cent = pekeris_centrifugal(p, l, arr)
        else:
            cent = l * (l + 1) / arr**2
        inv_r = pekeris_inverse_r(p, arr) if cfg.inverse_r_mode == "pekeris" else 1.0 / arr
        return (
            -m2 / (2.0 * m)
            + 0.75 * (m1 / m) ** 2
            - (m1 / m) * inv_r
            + cent
            + (m / mm.m0) * inv_h22m * morse_potential(p, arr)
        )

    return w_substituted, b_pdm


def _solve_once(w_fn, b_fn, r_min, r_max, n_interior, threshold, want_vectors,
                log_origin=None):
    """One discretized solve; log_origin switches to the t = ln(r - origin) grid."""
    if log_origin is None:
        h = (r_max - r_min) / (n_interior + 1)
        grid = r_min + h * np.arange(1, n_interior + 1)
        p_half = np.ones(n_interior + 1)
        measure = np.ones(n_interior)  # dr/dt on the grid
    else:
        t_lo = math.log(r_min - log_origin)
        t_hi = math.log(r_max - log_origin)
        h = (t_hi - t_lo) / (n_interior + 1)
        t_grid = t_lo + h * np.arange(1, n_interior + 1)
        grid = log_origin + np.exp(t_grid)
        t_half = t_lo + h * (np.arange(n_interior + 1) + 0.5)
        p_half = np.exp(-t_half)        # 1/r'(t)
        measure = np.exp(t_grid)        # r'(t)
    w_diag = np.asarray(w_fn(grid), dtype=float) * measure
    b_diag = np.asarray(b_fn(grid), dtype=float) * measure
    if np.any(b_diag <= 0.0) or not np.all(np.isfinite(b_diag)):
        raise DomainError("mass weight B is not positive and finite on the grid")
    if not np.all(np.isfinite(w_diag)):
        raise DomainError("effective potential is not finite on the grid")
    inv_sqrt_b = 1.0 / np.sqrt(b_diag)
    diag = ((p_half[:-1] + p_half[1:]) / h**2 + w_diag) / b_diag
    off = -(p_half[1:-1] / h**2) * inv_sqrt_b[:-1] * inv_sqrt_b[1:]
    lo = float(np.min(diag) - 2.0 * np.max(np.abs(off)) - 1.0)
    hi = float(threshold) - 1e-12
    if hi <= lo:
        return np.array([]), grid, None, measure
    if want_vectors:
        vals, vecs = eigh_tridiagonal(diag, off, select="v", select_range=(lo, hi))
        u = vecs * inv_sqrt_b[:, None]
        norms = np.sqrt(np.sum(u**2 * measure[:, None], axis=0) * h)
        u = u / np.where(norms > 0, norms, 1.0)
        return vals, grid, u, measure
    vals = eigh_tridiagonal(diag, off, select="v", select_range=(lo, hi), eigvals_only=True)
    return vals, grid, None, measure


def solve_potential(
    w_fn, b_fn, cfg: OracleConfig, threshold: float, log_origin: float | None = None
) -> OracleSpectrum:
    """Solve the discretized problem for arbitrary W and B callables.

    Used directly by self-tests (e.g. a quadratic well against the textbook
    oscillator ladder) and by ``solve``.
    """
    coarse_vals, _, _, _ = _solve_once(
        w_fn, b_fn, cfg.r_min, cfg.r_max, cfg.grid_points, threshold, False, log_origin)
    if not cfg.richardson:
        return OracleSpectrum(
            eigenvalues=coarse_vals, error_estimates=np.full_like(coarse_vals, np.nan),
            coarse=coarse_vals, fine=coarse_vals, threshold=threshold, config=cfg,
        )
    fine_n = 2 * cfg.grid_points + 1
    fine_vals, grid, vectors, _ = _solve_once(
        w_fn, b_fn, cfg.r_min, cfg.r_max, fine_n, threshold, cfg.want_vectors, log_origin)
    n_levels = min(len(coarse_vals), len(fine_vals))
    richardson = (4.0 * fine_vals[:n_levels] - coarse_vals[:n_levels]) / 3.0
    err = np.abs(fine_vals[:n_levels] - coarse_vals[:n_levels]) / 3.0
    return OracleSpectrum(
        eigenvalues=richardson, error_estimates=err,
        coarse=coarse_vals[:n_levels], fine=fine_vals[:n_levels],
        threshold=threshold, config=cfg, grid=grid,
        eigenvectors=vectors[:, :n_levels] if vectors is not None else None,
    )


def solve(
    p: PotentialParams, mm: MassModel, l: int, cfg: OracleConfig, units: UnitSystem = UNITS
) -> OracleSpectrum:
    """All bound levels of the configured problem (eV, strictly increasing)."""
    log_origin = None
    if cfg.mass_mode == "pdm" and mm.delta > 0.0:
        pole = mass_pole_radius(mm, p)
        if pole is not None and cfg.r_min <= pole:
            raise DomainError(
                f"mass pole at r = {pole:.6f} A lies inside the domain; raise r_min"
            )
        log_origin = virtual_pole(p, mm)
    w_fn, b_fn = build_w_and_b(p, mm, l, cfg, units)
    threshold = continuum_threshold(p, mm, l, cfg, units)
    return solve_potential(w_fn, b_fn, cfg, threshold, log_origin)


def formula_ladder_top(
    p: PotentialParams, mm: MassModel, l: int, mass_mode: str, units: UnitSystem = UNITS
) -> tuple[float, float, float] | None:
    """(literal energy, eps, xi_or_inf) of the shallowest bound level per the closed form.

    Used only to aim the oracle's domain (adequacy is still verified by grid
    convergence); returns None when the closed form predicts no bound level.
    """
    ladder = bound_ladder(p, mm if mass_mode == "pdm" else MassModel(m0=mm.m0), l, units)
    if len(ladder) == 0:
        return None
    return float(ladder.energy[-1]) + p.v3, float(ladder.eps[-1]), float(ladder.xi[-1])


def suggest_config(
    p: PotentialParams,
    mm: MassModel,
    l: int,
    units: UnitSystem = UNITS,
    e_top: float | None = None,
    k_target: float = 0.1,
    max_points: int = 120000,
    **overrides,
) -> OracleConfig:
    """Domain and grid adequate for all levels up to e_top.

    By default e_top is the closed-form ladder top (shallowest bound level);
    pass e_top explicitly when targeting a subset of levels, or for exact-mode
    runs whose shallowest level may differ from the expansion's estimate.  The
    domain is clipped at turning points of W/B at e_top, padded inward (where
    the profile dies super-exponentially, or toward the mass pole by the known
    power-law exponent) and outward by 8 decay lengths of the shallowest
    level; the spacing resolves the largest local wavenumber at k h <= k_target
    in the grid coordinate actually used (log-radius for varying mass).
    """
    base = dict(centrifugal_mode="pekeris", inverse_r_mode="pekeris", mass_mode="constant")
    base.update(overrides)
    cfg_keys = ("centrifugal_mode", "inverse_r_mode", "mass_mode", "pdm_reduced")
    probe_cfg = OracleConfig(r_min=1e-3, r_max=1e-3 + 1.0,
                             **{k: v for k, v in base.items() if k in cfg_keys})
    w_fn, b_fn = build_w_and_b(p, mm, l, probe_cfg, units)
    threshold = continuum_threshold(p, mm, l, probe_cfg, units)
    is_pdm = probe_cfg.mass_mode == "pdm" and mm.delta > 0.0
    ladder = formula_ladder_top(p, mm, l, probe_cfg.mass_mode, units)
    if e_top is None:
        e_top = ladder[0] if ladder is not None else threshold - 1e-3
    e_top = min(e_top, threshold - 1e-12)

    if is_pdm:
        origin = virtual_pole(p, mm)
        if origin > 0:
            # wall deep inside the pole-side forbidden sliver; the log grid
            # makes the extra span cheap (w = 1 - delta z is the pole distance)
            z_cut = (1.0 - 1e-5) / mm.delta
            scan_lo = p.r_e - math.log(z_cut) / p.a
        else:
            scan_lo = 1e-3
    else:
        origin = None
        scan_lo = 1e-3

    if is_pdm:
        t_scan = np.linspace(
            math.log(scan_lo - origin),
            math.log(p.r_e + 60.0 / p.a - origin),
            6000,
        )
        scan = origin + np.exp(t_scan)
    else:
        scan = np.linspace(max(scan_lo, p.r_e - 12.0 / p.a), p.r_e + 60.0 / p.a, 6000)
        scan = scan[scan > scan_lo]
    w_scan = np.asarray(w_fn(scan))
    b_scan = np.asarray(b_fn(scan))
    ratio = w_scan / b_scan
    allowed = ratio < e_top
    if not np.any(allowed):
        raise DomainError("no classically allowed region below e_top")
    r_in = float(scan[np.argmax(allowed)])
    r_out = float(scan[len(allowed) - 1 - np.argmax(allowed[::-1])])

    # outward decay rate of the shallowest level governs the tail padding
    b_inf = float(np.asarray(b_fn(np.array([p.r_e + 30.0 / p.a])))[0])
    kappa_tail = math.sqrt(max((threshold - e_top) * b_inf, 1e-12))
    r_max = r_out + max(8.0 / kappa_tail, 1.5 / p.a)
    r_min = scan_lo if is_pdm else max(scan_lo, r_in - 2.2 / p.a)

    # spacing from the largest local wavenumber in the grid coordinate
    k_local = np.sqrt(np.maximum(e_top * b_scan - w_scan, 0.0))
    if is_pdm:
        k_local = k_local * (scan - origin)
        span = math.log(r_max - origin) - math.log(r_min - origin)
    else:
        span = r_max - r_min
    k_max = float(np.max(k_local))
    n_points = int(min(max(1500, math.ceil(span * k_max / k_target)), max_points))
    return OracleConfig(r_min=r_min, r_max=r_max, grid_points=n_points, **{
        k: v for k, v in base.items() if k in cfg_keys + ("richardson", "want_vectors")
    })


@dataclass
class LevelComparison:
    index: int
    closed_form: float
    oracle: float
    oracle_error: float
    deviation: float
    flagged: bool


@dataclass
class ComparisonReport:
    """Per-level deviations between closed-form and oracle spectra."""

    levels: list[LevelComparison] = field(default_factory=list)
    closed_count: int = 0
    oracle_count: int = 0
    flag_factor: float = 10.0

    @property
    def count_mismatch(self) -> bool:
        return self.closed_count != self.oracle_count

    @property
    def max_deviation(self) -> float:
        return max((lv.deviation for lv in self.levels), default=0.0)

    def to_json(self) -> str:
        return json.dumps(
            {
                "closed_count": self.closed_count,
                "oracle_count": self.oracle_count,
                "count_mismatch": self.count_mismatch,
                "flag_factor": self.flag_factor,
                "max_deviation_eV": self.max_deviation,
                "levels": [
                    {
                        "index": lv.index,
                        "closed_form_eV": lv.closed_form,
                        "oracle_eV": lv.oracle,
                        "oracle_error_eV": lv.oracle_error,
                        "deviation_eV": lv.deviation,
                        "flagged": lv.flagged,
                    }
                    for lv in self.levels
                ],
            },
            indent=2,
            sort_keys=True,
        )

    def to_text(self) -> str:
        lines = [
            f"{'idx':>4} {'closed form':>16} {'oracle':>16} {'deviation':>12} {'est. err':>12} flag",
        ]
        for lv in self.levels:
            lines.append(
                f"{lv.index:>4} {lv.closed_form:>16.9f} {lv.oracle:>16.9f}"
                f" {lv.deviation:>12.3e} {lv.oracle_error:>12.3e}"
                f" {'!' if lv.flagged else ''}"
            )
        lines.append(
            f"levels: closed-form {self.closed_count}, oracle {self.oracle_count}"
            + ("  (count mismatch)" if self.count_mismatch else "")
        )
        return "\n".join(lines)


def compare(
    closed_form: list[SpectrumResult] | list[float],
    oracle: OracleSpectrum,
    flag_factor: float = 10.0,
) -> ComparisonReport:
    """Pair levels by index and report deviations.

    A deviation exceeding flag_factor times the oracle's own discretization
    error estimate is flagged.  A level-count mismatch is reported, not fatal.
    """
    closed_vals = [
        float(c.energy) if isinstance(c, SpectrumResult) else float(c) for c in closed_form
    ]
    report = ComparisonReport(
        closed_count=len(closed_vals),
        oracle_count=len(oracle.eigenvalues),
        flag_factor=flag_factor,
    )
    for idx in range(min(len(closed_vals), len(oracle.eigenvalues))):
        deviation = abs(closed_vals[idx] - float(oracle.eigenvalues[idx]))
        err = float(oracle.error_estimates[idx])
        flagged = math.isfinite(err) and deviation > flag_factor * max(err, 1e-15)
        report.levels.append(
            LevelComparison(
                index=idx,
                closed_form=closed_vals[idx],
                oracle=float(oracle.eigenvalues[idx]),
                oracle_error=err,
                deviation=deviation,
                flagged=flagged,
            )
        )
    return report


def widen_if_needed(
    p: PotentialParams,
    mm: MassModel,
    l: int,
    cfg: OracleConfig,
    units: UnitSystem = UNITS,
    tail_tol: float = 1e-8,
    max_rounds: int = 6,
) -> tuple[OracleSpectrum, OracleConfig]:
    """Solve, then widen the domain while the top eigenvector leaks at a boundary."""
    current = replace(cfg, want_vectors=True)
    for _ in range(max_rounds):
        spectrum = solve(p, mm, l, current, units)
        if spectrum.eigenvectors is None or spectrum.eigenvectors.shape[1] == 0:
            return spectrum, current
        top = np.abs(spectrum.eigenvectors[:, -1])
        peak = float(np.max(top))
        if top[0] <= tail_tol * peak and top[-1] <= tail_tol * peak:
            return spectrum, current
        grow = 0.6 * (current.r_max - current.r_min)
        current = replace(
            current,
            r_max=current.r_max + grow,
            grid_points=int(current.grid_points * 1.6),
        )
    return solve(p, mm, l, current, units), current
