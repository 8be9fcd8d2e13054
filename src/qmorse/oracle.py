"""Independent banded high-order eigenvalue oracle.

Solves -u'' + W(r) u = E B(r) u, with B(r) = 2 m(r)/hbar^2, between two
Dirichlet walls, and returns the levels below the continuum threshold with a
per-level error estimate.

Grids.  The mass model picks the grid.  Constant-mass problems (delta = 0)
use a uniform r grid.  Varying-mass problems (delta > 0) use a uniform grid in
t = ln(r - r_p), with r_p the (possibly negative, virtual) mass-pole radius:
high levels of the reduced problem oscillate ever faster toward the pole while
their outer tails stretch toward large r, and the log coordinate resolves both
ends at once.

One equation for both grids.  On the log grid the Sturm-Liouville form
-d/dt[(1/r') du/dt] + r' W u = E r' B u becomes, with u = e^{t/2} phi,

    -phi'' + W^ phi = E B^ phi,   W^ = e^{2t} W + 1/4,   B^ = e^{2t} B;

the uniform grid is the same equation with t = r, W^ = W and B^ = B.
-phi'' is the central (2p+1)-point stencil with p = 12 (Colbert & Miller,
J. Chem. Phys. 96, 1982 (1992), give its p -> infinity limit, the sinc-DVR).
Scaling by B^{-1/2} makes the matrix symmetric with bandwidth p, and LAPACK's
banded solver returns the levels below the threshold in O(p N) memory.

Error estimate.  Each level's estimate is its difference from a second solve
whose grid is finer (spacing h/1.25) and wider: the outer wall is pushed out
by a quarter of the span, in the grid coordinate, and on the log grid so is
the inner wall, but never past w = 1 - delta z = 1e-8 when the mass pole is
real, nor below r = MIN_RADIUS when it is virtual.  The estimate is floored
at the matrix's roundoff, 16 eps ||H||_inf.  On the exactly solvable reduced
problems deviation/estimate is of order one.

Mode semantics.  B = 2 m(r)/hbar^2 in both modes.  centrifugal_mode "pekeris"
solves the reduced quadratic problem, the transformed equation whose
eigenvalues the closed form gives exactly, with both l(l+1)/r^2 and 1/r
replaced by their second-order exponential expansions; at delta = 0 it is the
constant-mass Pekeris problem.  "exact" solves the untransformed equation with
W = potential.effective_potential, keeping l(l+1)/r^2 and 1/r as they are.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from .errors import DomainError
from .pekeris import pekeris_coefficients
from .potential import (
    MassModel,
    PotentialParams,
    effective_potential,
    mass,
    mass_pole_radius,
    virtual_pole,
)
from .spectrum import bound_ladder, ladder_length, reduced_coefficients
from .units import UNITS, UnitSystem, hbar2_over_2mu

#: Interior grid points: the most ``suggest_config`` asks for, and the most a
#: configuration accepts (the banded solve costs O(N^2) time).
SUGGESTED_MAX_GRID_POINTS = 2000
MAX_GRID_POINTS = 3000
#: Largest local wavenumber times spacing, in the grid coordinate.
MAX_KH = 1.5
#: WKB decay, in e-folds, of the shallowest level from its inner turning
#: point to a suggested varying-mass inner wall.
POLE_SIDE_EFOLDS = 16.0
#: Deepest pole-side wall, as w = 1 - delta z: the reported solve and the check solve.
POLE_WALL = 1e-5
CHECK_POLE_WALL = 1e-8
#: Innermost radius of a suggested domain or check solve that no real pole bounds.
MIN_RADIUS = 1e-3


def _kinetic_band(p: int) -> np.ndarray:
    """Row k: h^2 times the coefficient of -d^2/dt^2 k points off the diagonal."""
    fp = math.factorial(p)
    c = [Fraction(2 * (-1) ** (k + 1) * fp * fp,
                  k * k * math.factorial(p - k) * math.factorial(p + k)) for k in range(1, p + 1)]
    return np.array([float(2 * sum(c))] + [float(-ck) for ck in c])


KINETIC_BAND = _kinetic_band(12)
#: Fewest interior points a grid may have: one whole (2p+1)-point stencil.
MIN_GRID_POINTS = 2 * len(KINETIC_BAND) - 1


@dataclass(frozen=True)
class OracleConfig:
    r_min: float
    r_max: float
    grid_points: int = SUGGESTED_MAX_GRID_POINTS
    centrifugal_mode: str = "pekeris"
    want_vectors: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.r_min) and math.isfinite(self.r_max)):
            raise DomainError("r_min and r_max must be finite")
        if not self.r_min > 0.0:
            raise DomainError("r_min must be positive")
        if not self.r_max > self.r_min:
            raise DomainError("r_max must exceed r_min")
        n = self.grid_points
        if (isinstance(n, bool) or not isinstance(n, (int, np.integer))
                or not MIN_GRID_POINTS <= n <= MAX_GRID_POINTS):
            raise DomainError(
                f"grid_points must be an integer in [{MIN_GRID_POINTS}, {MAX_GRID_POINTS}],"
                f" got {n!r}")
        if self.centrifugal_mode not in ("exact", "pekeris"):
            raise DomainError(f"bad centrifugal_mode {self.centrifugal_mode!r}")


@dataclass
class OracleSpectrum:
    """Bound levels (eV) of the reported solve, with per-level error estimates."""

    eigenvalues: np.ndarray
    error_estimates: np.ndarray
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


def build_w_and_b(
    p: PotentialParams, mm: MassModel, l: int, cfg: OracleConfig, units: UnitSystem = UNITS
):
    """Return callables W(r) [1/A^2] and B(r) [1/(eV A^2)] for the configuration."""
    inv_h22m = 1.0 / hbar2_over_2mu(mm.m0, units)  # = 2 m0 / hbar^2

    def b(r):
        m, _, _ = mass(mm, p, r)
        return m / mm.m0 * inv_h22m

    if cfg.centrifugal_mode == "exact":

        def w_exact(r):
            return effective_potential(p, mm, l, r, units)

        return w_exact, b

    beta1, beta2, c0 = reduced_coefficients(p, mm, l, units)

    def w_reduced(r):
        z = np.exp(-p.a * (np.asarray(r, dtype=float) - p.r_e))
        w = 1.0 - mm.delta * z
        return p.a**2 * (beta1 * z**2 - beta2 * z + c0) / w**2

    return w_reduced, b


def pole_wall(p: PotentialParams, mm: MassModel, w: float) -> float:
    """Radius where 1 - delta z = w, outside a real mass pole."""
    return virtual_pole(p, mm) - math.log1p(-w) / p.a


def _solve_once(w_fn, b_fn, t_lo, t_hi, n, threshold, want_vectors, log_origin):
    """Levels below threshold on n interior points of [t_lo, t_hi], and their roundoff.

    t is r itself, or ln(r - log_origin) on the log grid.  The roundoff is
    16 eps ||H||_inf.
    """
    from scipy.linalg import eig_banded, solve_banded

    h = (t_hi - t_lo) / (n + 1)
    t = t_lo + h * np.arange(1, n + 1)
    if log_origin is None:
        grid, dr_dt = t, np.ones(n)
    else:
        dr_dt = np.exp(t)
        grid = log_origin + dr_dt
    w_hat = np.asarray(w_fn(grid), dtype=float) * dr_dt**2
    b_hat = np.asarray(b_fn(grid), dtype=float) * dr_dt**2
    if log_origin is not None:
        w_hat += 0.25
    if np.any(b_hat <= 0.0) or not np.all(np.isfinite(b_hat)):
        raise DomainError("mass weight B is not positive and finite on the grid")
    if not np.all(np.isfinite(w_hat)):
        raise DomainError("effective potential is not finite on the grid")
    inv_sqrt_b = 1.0 / np.sqrt(b_hat)
    p = len(KINETIC_BAND) - 1
    band = np.zeros((2 * p + 1, n))  # band[p + i - j, j] = H[i, j]; rows <= p: upper form
    diag = (KINETIC_BAND[0] / h**2 + w_hat) / b_hat
    band[p] = diag
    off_sum = np.zeros(n)  # sum of |H[i, j]| over j != i
    for k in range(1, p + 1):
        off = KINETIC_BAND[k] / h**2 * inv_sqrt_b[:-k] * inv_sqrt_b[k:]
        band[p - k, k:] = band[p + k, :-k] = off
        off_sum[:-k] += np.abs(off)
        off_sum[k:] += np.abs(off)
    roundoff = 16.0 * np.finfo(float).eps * float(np.max(np.abs(diag) + off_sum))
    lo = float(np.min(diag - off_sum)) - 1.0  # below every Gershgorin disc
    hi = float(threshold) - 1e-12
    if hi <= lo:
        return np.array([]), roundoff, grid, None
    vals = eig_banded(band[:p + 1], eigvals_only=True, select="v", select_range=(lo, hi))
    if not want_vectors:
        return vals, roundoff, grid, None
    # inverse iteration on the same band: O(p^2 N) per level, no N x N array
    vecs = np.empty((n, len(vals)))
    for j, val in enumerate(vals):
        band[p] = diag - (val + roundoff)
        x = np.ones(n)
        for _ in range(2):
            x = solve_banded((p, p), band, x)
            x /= np.linalg.norm(x)
        vecs[:, j] = x
    u = vecs * (inv_sqrt_b * np.sqrt(dr_dt))[:, None]  # back to u = e^{t/2} phi
    return vals, roundoff, grid, u / np.sqrt(h * (dr_dt @ u**2))


def solve_potential(
    w_fn, b_fn, cfg: OracleConfig, threshold: float, log_origin: float | None = None,
    check_r_min: float | None = None,
) -> OracleSpectrum:
    """Solve the discretized problem for arbitrary W and B callables.

    Used directly by self-tests (e.g. a quadratic well against the textbook
    oscillator ladder) and by ``solve``.  When ``check_r_min`` is given, the
    check solve that sizes the error estimates moves the inner wall in by a
    quarter of the span, as it moves the outer wall out, but not past
    ``check_r_min``.
    """
    def coord(r):
        return r if log_origin is None else math.log(r - log_origin)

    t_lo, t_hi = coord(cfg.r_min), coord(cfg.r_max)
    vals, roundoff, grid, vectors = _solve_once(
        w_fn, b_fn, t_lo, t_hi, cfg.grid_points, threshold, cfg.want_vectors, log_origin)
    estimates = np.empty(0)
    if len(vals):
        span = t_hi - t_lo
        check_lo = t_lo
        if check_r_min is not None:
            check_lo = min(t_lo, max(t_lo - 0.25 * span, coord(check_r_min)))
        check_hi = t_hi + 0.25 * span
        check_n = math.ceil(1.25 * (check_hi - check_lo) / span * (cfg.grid_points + 1)) - 1
        check_vals, check_roundoff, _, _ = _solve_once(
            w_fn, b_fn, check_lo, check_hi, check_n, threshold, False, log_origin)
        # a level the check solve lost may lie anywhere up to the threshold
        other = np.full(len(vals), float(threshold))
        shared = min(len(vals), len(check_vals))
        other[:shared] = check_vals[:shared]
        estimates = np.maximum(np.abs(vals - other), max(roundoff, check_roundoff))
    return OracleSpectrum(
        eigenvalues=vals, error_estimates=estimates, threshold=threshold, config=cfg,
        grid=grid, eigenvectors=vectors,
    )


def solve(
    p: PotentialParams, mm: MassModel, l: int, cfg: OracleConfig, units: UnitSystem = UNITS
) -> OracleSpectrum:
    """All bound levels of the configured problem (eV, strictly increasing)."""
    log_origin = check_r_min = None
    if mm.delta > 0.0:
        pole = mass_pole_radius(mm, p)
        if pole is not None and cfg.r_min <= pole:
            raise DomainError(
                f"mass pole at r = {pole:.6f} A lies inside the domain; raise r_min"
            )
        log_origin = virtual_pole(p, mm)
        check_r_min = pole_wall(p, mm, CHECK_POLE_WALL) if pole is not None else MIN_RADIUS
    w_fn, b_fn = build_w_and_b(p, mm, l, cfg, units)
    threshold = continuum_threshold(p, mm, l, cfg, units)
    return solve_potential(w_fn, b_fn, cfg, threshold, log_origin, check_r_min)


def formula_ladder_top(
    p: PotentialParams, mm: MassModel, l: int, units: UnitSystem = UNITS
) -> float | None:
    """Literal energy of the shallowest bound level per the closed form.

    Used only to aim the oracle's domain (adequacy is still verified by grid
    convergence); returns None when the closed form predicts no bound level,
    and raises DomainError when it predicts more levels than a grid may have
    points.
    """
    count = ladder_length(p, mm, l, units)
    if count > MAX_GRID_POINTS:
        raise DomainError(f"the closed form has {count} bound levels at l = {l}, more than"
                          f" the {MAX_GRID_POINTS} points an oracle grid may have")
    ladder = bound_ladder(p, mm, l, units)
    if len(ladder) == 0:
        return None
    return float(ladder.energy[-1]) + p.v3


def suggest_config(
    p: PotentialParams,
    mm: MassModel,
    l: int,
    units: UnitSystem = UNITS,
    e_top: float | None = None,
    centrifugal_mode: str = "pekeris",
) -> OracleConfig:
    """Domain and grid adequate for all levels up to e_top.

    By default e_top is the closed-form ladder top (shallowest bound level);
    pass e_top explicitly when targeting a subset of levels, or for exact-mode
    runs whose shallowest level may differ from the expansion's estimate.  The
    domain is clipped at turning points of W/B at e_top and padded outward by
    8 decay lengths of the shallowest level.  Inward, a constant-mass domain
    is padded by 2.2/a, where the profile dies super-exponentially; a
    varying-mass domain reaches where the WKB decay of the shallowest level,
    the integral of kappa dt from its inner turning point, is
    POLE_SIDE_EFOLDS, but never deeper than the pole-side wall
    pole_wall(POLE_WALL) (or MIN_RADIUS for a virtual pole), where it stays
    when the pole side never decays that far.  The spacing resolves the
    largest local wavenumber at k h <= MAX_KH in the grid coordinate actually
    used (log-radius when delta > 0); that alone sets the number of points,
    from one stencil up to SUGGESTED_MAX_GRID_POINTS.  ``centrifugal_mode``
    is passed on to the returned OracleConfig.
    """
    probe_cfg = OracleConfig(
        r_min=MIN_RADIUS, r_max=MIN_RADIUS + 1.0, centrifugal_mode=centrifugal_mode)
    w_fn, b_fn = build_w_and_b(p, mm, l, probe_cfg, units)
    threshold = continuum_threshold(p, mm, l, probe_cfg, units)
    log_grid = mm.delta > 0.0
    ladder_top = formula_ladder_top(p, mm, l, units)
    if e_top is None:
        e_top = ladder_top if ladder_top is not None else threshold - 1e-3
    e_top = min(e_top, threshold - 1e-12)

    if log_grid:
        origin = virtual_pole(p, mm)
        scan_lo = pole_wall(p, mm, POLE_WALL) if origin > 0 else MIN_RADIUS
        t_scan = np.linspace(
            math.log(scan_lo - origin),
            math.log(p.r_e + 60.0 / p.a - origin),
            6000,
        )
        scan = origin + np.exp(t_scan)
    else:
        scan_lo = MIN_RADIUS
        scan = np.linspace(max(scan_lo, p.r_e - 12.0 / p.a), p.r_e + 60.0 / p.a, 6000)
        scan = scan[scan > scan_lo]
    w_scan = np.asarray(w_fn(scan))
    b_scan = np.asarray(b_fn(scan))
    ratio = w_scan / b_scan
    allowed = ratio < e_top
    if not np.any(allowed):
        raise DomainError("no classically allowed region below e_top")
    i_in = int(np.argmax(allowed))
    r_in = float(scan[i_in])
    r_out = float(scan[len(allowed) - 1 - np.argmax(allowed[::-1])])

    # outward decay rate of the shallowest level governs the tail padding
    b_inf = float(np.asarray(b_fn(np.array([p.r_e + 30.0 / p.a])))[0])
    kappa_tail = math.sqrt(max((threshold - e_top) * b_inf, 1e-12))
    r_max = r_out + max(8.0 / kappa_tail, 1.5 / p.a)

    # spacing from the largest local wavenumber in the grid coordinate
    gap = e_top * b_scan - w_scan
    k_local = np.sqrt(np.maximum(gap, 0.0))
    if log_grid:
        k_local = k_local * (scan - origin)
        # decay[j]: e-folds from the turning point in to scan[i_in - j]
        kappa = np.sqrt(np.maximum(-gap[i_in::-1], 0.0)) * (scan[i_in::-1] - origin)
        decay = np.cumsum(kappa) * (t_scan[1] - t_scan[0])
        deep = np.flatnonzero(decay >= POLE_SIDE_EFOLDS)
        r_min = float(scan[i_in - deep[0]]) if deep.size else scan_lo
        span = math.log(r_max - origin) - math.log(r_min - origin)
    else:
        r_min = max(scan_lo, r_in - 2.2 / p.a)
        span = r_max - r_min
    k_max = float(np.max(k_local))
    n_points = math.ceil(span * k_max / MAX_KH)
    n_points = min(max(MIN_GRID_POINTS, n_points), SUGGESTED_MAX_GRID_POINTS)
    return replace(probe_cfg, r_min=r_min, r_max=r_max, grid_points=n_points)


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
    closed_form: list[float],
    oracle: OracleSpectrum,
    flag_factor: float = 10.0,
) -> ComparisonReport:
    """Pair levels by index and report deviations.

    A deviation exceeding flag_factor times the oracle's own discretization
    error estimate is flagged.  A level-count mismatch is reported, not fatal.
    """
    closed_vals = [float(c) for c in closed_form]
    report = ComparisonReport(
        closed_count=len(closed_vals),
        oracle_count=len(oracle.eigenvalues),
        flag_factor=flag_factor,
    )
    for idx in range(min(len(closed_vals), len(oracle.eigenvalues))):
        deviation = abs(closed_vals[idx] - float(oracle.eigenvalues[idx]))
        err = float(oracle.error_estimates[idx])
        flagged = deviation > flag_factor * err
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
