"""Independent banded high-order eigenvalue oracle.

Solves -u'' + W(r) u = E B(r) u, with B(r) = 2 m(r)/hbar^2, between two
Dirichlet walls, and returns the levels below the continuum threshold with a
per-level error estimate.

Grids.  Every problem but one uses a uniform grid in t = ln(r - r_o), with
the origin r_o that ``problem`` sets.  At delta > 0 r_o is the (possibly
negative, virtual) mass-pole radius: high levels of the reduced problem
oscillate ever faster toward the pole while their outer tails stretch toward
large r, and the log coordinate resolves both ends at once.  The constant-mass Pekeris
problem (delta = 0) takes r_o = 0, t = ln r, which resolves its steep inner
wall and long outer tails with a few hundred points where a uniform r grid
ran out of 2000.  Exact mode at delta = 0 alone keeps a uniform r grid: on
the log grid its H2-ref l = 10 ladder goes from no levels to 14 of the closed
form's 17, and the benchmark's check classifies the empty ladder as a known
defect, so that move waits until the check has an exact-mode expectation.

One equation for both grids.  On the log grid the Sturm-Liouville form
-d/dt[(1/r') du/dt] + r' W u = E r' B u becomes, with u = e^{t/2} phi,

    -phi'' + W^ phi = E B^ phi,   W^ = e^{2t} W + 1/4,   B^ = e^{2t} B;

the uniform grid is the same equation with t = r, W^ = W and B^ = B.
-phi'' is the central (2p+1)-point stencil with p = 12 (Colbert & Miller,
J. Chem. Phys. 96, 1982 (1992), give its p -> infinity limit, the sinc-DVR).
Scaling by B^{-1/2} makes the matrix symmetric with bandwidth p.  LAPACK's
dsbevd reduces it to tridiagonal form (O(p N^2) time, O(p N) memory), dsterf's
root-free QR takes all N eigenvalues in O(N^2), and those below the threshold
are kept.  Once ~5% of them are bound that beats scipy's dsbevx, which bisects
each bound level to 2 safmin.

Error estimate.  Each level's estimate is its difference from a second solve
with spacing h/1.25.  The check solve keeps the reported walls, except that it
widens a wall the shallowest level has not decayed to: where the WKB sum of
sqrt(max(W^ - E B^, 0)) h from that level's innermost (outermost) allowed
point to the inner (outer) wall, read off the reported solve's own grid, is
below WALL_EFOLDS.  Moving a Dirichlet wall shifts a level by ~|u'|^2 at the
wall (Kong & Zettl, J. Differential Equations 126, 389 (1996)), far below the
spacing error once the level has decayed there.  A widened outer wall moves
out by a quarter of the span, in the grid coordinate; on the log grid a
widened inner wall moves in by a quarter of the span too, but never past
w = 1 - delta z = CHECK_POLE_WALL when the mass pole is real, nor below
r = MIN_RADIUS otherwise.  The estimate is floored at the matrix's roundoff,
16 eps ||H||_inf.  On the exactly solvable reduced problems deviation/estimate
is of order one.

Mode semantics.  B = 2 m(r)/hbar^2 in both modes.  centrifugal_mode "pekeris"
solves the reduced quadratic problem, the transformed equation whose
eigenvalues the closed form gives exactly, with both l(l+1)/r^2 and 1/r
replaced by their second-order exponential expansions; its beta1, beta2 and
continuum offset come from ``spectrum.strengths``, and at delta = 0 it is the
constant-mass Pekeris problem.  "exact" solves the untransformed equation with
W = potential.effective_potential, keeping l(l+1)/r^2 and 1/r as they are.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Callable

import numpy as np

from .errors import DomainError
from .potential import (
    MassModel,
    PotentialParams,
    effective_potential,
    mass,
    mass_pole_radius,
    virtual_pole,
)
from .spectrum import _bound_prefix, _evaluated_mass, _ladder_length, strengths
from .units import hbar2_over_2mu

#: Interior grid points: the most ``suggest_config`` asks for, and the most a
#: configuration accepts (the banded solve finds all N eigenvalues in O(p N^2) time).
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
#: WKB decay, in e-folds, of the shallowest level out to a wall that the check
#: solve keeps; a wall it has decayed less toward is widened.
WALL_EFOLDS = 6.0
#: ``compare`` flags a level whose deviation exceeds this many error estimates.
FLAG_FACTOR = 10.0


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


@dataclass
class OracleSpectrum:
    """Bound levels (eV) of the reported solve, with per-level error estimates."""

    eigenvalues: np.ndarray
    error_estimates: np.ndarray
    threshold: float
    grid: np.ndarray | None = None
    eigenvectors: np.ndarray | None = None


@dataclass(frozen=True)
class OracleProblem:
    """The problem of one request, formed once by ``problem``.

    w and b are the W(r) [1/A^2] and B(r) [1/(eV A^2)] callables, threshold
    their r -> infinity limit W/B (eV): v3, plus the offset of ``strengths``
    in pekeris mode.  origin is r_o of the log grid t = ln(r - r_o), or None
    for the uniform r grid; pole is the real mass pole, or None.  wall and
    check_wall, the innermost radii of a suggested domain and of a check
    solve, are pole_wall(POLE_WALL) and pole_wall(CHECK_POLE_WALL) outside a
    real pole, else MIN_RADIUS.  ladder holds the literal energies (eV) of the
    closed form's bound levels, which the oracle checks.
    """

    p: PotentialParams
    l: int
    w: Callable
    b: Callable
    threshold: float
    origin: float | None
    pole: float | None
    wall: float
    check_wall: float
    ladder: np.ndarray


def pole_wall(p: PotentialParams, mm: MassModel, w: float) -> float:
    """Radius where 1 - delta z = w, outside a real mass pole."""
    return virtual_pole(p, mm) - math.log1p(-w) / p.a


def problem(p: PotentialParams, mm: MassModel, l: int,
            centrifugal_mode: str = "pekeris") -> OracleProblem:
    """The oracle problem of one l in a centrifugal mode, from one ``strengths`` result.

    Below DELTA_CROSSOVER the ladder keeps the constant-mass routing of
    ``spectrum_grid`` while pekeris-mode W keeps the real delta, which forms
    the reduced problem a second time.  Raises DomainError for an unknown
    mode and, before any level is built, when the closed form predicts more
    levels than a grid may have points.
    """
    if centrifugal_mode not in ("exact", "pekeris"):
        raise DomainError(f"bad centrifugal_mode {centrifugal_mode!r}")
    closed_mm = _evaluated_mass(mm)
    reduced = strengths(p, closed_mm, l)
    count = _ladder_length(reduced, closed_mm.delta)
    if count > MAX_GRID_POINTS:
        raise DomainError(f"the closed form has {count} bound levels at l = {l}, more than"
                          f" the {MAX_GRID_POINTS} points an oracle grid may have")
    ladder = _bound_prefix(p, closed_mm, reduced, count).energy + p.v3
    inv_h22m = 1.0 / hbar2_over_2mu(mm.m0)  # = 2 m0 / hbar^2

    def b(r):
        m, _, _ = mass(mm, p, r)
        return m / mm.m0 * inv_h22m

    if centrifugal_mode == "exact":
        threshold, origin, w = p.v3, None, partial(effective_potential, p, mm, l)
    else:
        beta1, beta2, offset = map(float, reduced if closed_mm.delta == mm.delta
                                   else strengths(p, mm, l))
        threshold, origin = p.v3 + offset, 0.0
        c0 = threshold / (hbar2_over_2mu(mm.m0) * p.a**2)

        def w(r):
            z = np.exp(-p.a * (np.asarray(r, dtype=float) - p.r_e))
            return p.a**2 * (beta1 * z**2 - beta2 * z + c0) / (1.0 - mm.delta * z)**2

    origin = virtual_pole(p, mm) if mm.delta > 0.0 else origin
    pole = mass_pole_radius(mm, p)
    wall, check_wall = ((MIN_RADIUS, MIN_RADIUS) if pole is None else
                        (pole_wall(p, mm, POLE_WALL), pole_wall(p, mm, CHECK_POLE_WALL)))
    return OracleProblem(p=p, l=l, w=w, b=b, threshold=threshold, origin=origin, pole=pole,
                         wall=wall, check_wall=check_wall, ladder=ladder)


def _wall_efolds(w_hat, b_hat, e, h):
    """WKB e-folds of decay of a level at e from its innermost allowed point to
    the inner wall and from its outermost allowed point to the outer wall."""
    gap = w_hat - e * b_hat
    allowed = np.flatnonzero(gap < 0.0)
    if not allowed.size:
        return 0.0, 0.0
    kappa_h = np.sqrt(np.maximum(gap, 0.0)) * h
    return float(np.sum(kappa_h[:allowed[0]])), float(np.sum(kappa_h[allowed[-1] + 1:]))


def _solve_once(prob: OracleProblem, t_lo, t_hi, n, want_vectors):
    """Levels below the threshold on n interior points of [t_lo, t_hi], their
    roundoff, the grid, the eigenvectors (or None) and the shallowest level's
    decay to each wall (``_wall_efolds``; zero when no level is bound).

    t is r itself, or ln(r - prob.origin) on the log grid.  The roundoff is
    16 eps ||H||_inf.
    """
    from scipy.linalg import eig_banded, solve_banded

    h = (t_hi - t_lo) / (n + 1)
    t = t_lo + h * np.arange(1, n + 1)
    if prob.origin is None:
        grid, dr_dt = t, np.ones(n)
    else:
        dr_dt = np.exp(t)
        grid = prob.origin + dr_dt
    w_hat = np.asarray(prob.w(grid), dtype=float) * dr_dt**2
    b_hat = np.asarray(prob.b(grid), dtype=float) * dr_dt**2
    if prob.origin is not None:
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
    vals = eig_banded(band[:p + 1], eigvals_only=True)
    vals = vals[vals <= float(prob.threshold) - 1e-12]
    efolds = _wall_efolds(w_hat, b_hat, vals[-1], h) if len(vals) else (0.0, 0.0)
    if not want_vectors:
        return vals, roundoff, grid, None, efolds
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
    return vals, roundoff, grid, u / np.sqrt(h * (dr_dt @ u**2)), efolds


def solve(prob: OracleProblem, cfg: OracleConfig) -> OracleSpectrum:
    """All bound levels of the problem on the configured grid (eV, strictly increasing).

    The check solve that sizes the error estimates has spacing h/1.25 on the
    same walls, save that a wall the shallowest level has decayed less than
    WALL_EFOLDS toward moves out by a quarter of the span; the inner wall
    moves only on the log grid, and not past ``prob.check_wall``.  A self-test
    solves its own W and B in a ``dataclasses.replace`` of a problem.
    """
    if prob.pole is not None and cfg.r_min <= prob.pole:
        raise DomainError(f"mass pole at r = {prob.pole:.6f} A lies inside the domain; raise r_min")

    def coord(r):
        return r if prob.origin is None else math.log(r - prob.origin)

    t_lo, t_hi = coord(cfg.r_min), coord(cfg.r_max)
    vals, roundoff, grid, vectors, (inner, outer) = _solve_once(
        prob, t_lo, t_hi, cfg.grid_points, cfg.want_vectors)
    estimates = np.empty(0)
    if len(vals):
        span = t_hi - t_lo
        check_lo, check_hi = t_lo, t_hi
        if prob.origin is not None and inner < WALL_EFOLDS:
            check_lo = min(t_lo, max(t_lo - 0.25 * span, coord(prob.check_wall)))
        if outer < WALL_EFOLDS:
            check_hi = t_hi + 0.25 * span
        check_n = math.ceil(1.25 * (check_hi - check_lo) / span * (cfg.grid_points + 1)) - 1
        check_vals, check_roundoff, *_ = _solve_once(prob, check_lo, check_hi, check_n, False)
        # a level the check solve lost may lie anywhere up to the threshold
        other = np.full(len(vals), float(prob.threshold))
        shared = min(len(vals), len(check_vals))
        other[:shared] = check_vals[:shared]
        estimates = np.maximum(np.abs(vals - other), max(roundoff, check_roundoff))
    return OracleSpectrum(
        eigenvalues=vals, error_estimates=estimates, threshold=prob.threshold,
        grid=grid, eigenvectors=vectors,
    )


def suggest_config(prob: OracleProblem, e_top: float | None = None) -> OracleConfig:
    """Domain and grid adequate for all levels up to e_top.

    By default e_top is the top of ``prob.ladder`` (the shallowest bound
    level), and a problem whose closed form has no bound level is refused;
    pass e_top explicitly when targeting a subset of levels, or for
    exact-mode runs whose shallowest level may differ from the expansion's
    estimate.  The domain is clipped at turning points of W/B at e_top and
    padded outward by 8 decay lengths of the shallowest level.  Inward, a
    log-grid domain (every problem with a ``prob.origin``) reaches where the
    WKB decay of the shallowest level, the integral of kappa dt from its
    inner turning point, is POLE_SIDE_EFOLDS, but never deeper than
    ``prob.wall``, where it stays when the pole side never decays that far.
    The uniform r grid (origin None: exact mode at delta = 0) is padded
    inward by 2.2/a, where the profile dies super-exponentially.  The spacing
    resolves the largest local wavenumber at k h <= MAX_KH in the grid
    coordinate actually used; that alone sets the number of points, from one
    stencil up to SUGGESTED_MAX_GRID_POINTS.
    """
    p, w_fn, b_fn, threshold, origin = prob.p, prob.w, prob.b, prob.threshold, prob.origin
    if e_top is None:
        if not len(prob.ladder):
            raise DomainError(f"the closed form has no bound level at l = {prob.l}")
        e_top = float(prob.ladder[-1])
    e_top = min(e_top, threshold - 1e-12)

    if origin is not None:
        t_scan = np.linspace(
            math.log(prob.wall - origin),
            math.log(p.r_e + 60.0 / p.a - origin),
            6000,
        )
        scan = origin + np.exp(t_scan)
    else:
        scan = np.linspace(max(prob.wall, p.r_e - 12.0 / p.a), p.r_e + 60.0 / p.a, 6000)
        scan = scan[scan > prob.wall]
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
    if origin is not None:
        k_local = k_local * (scan - origin)
        # decay[j]: e-folds from the turning point in to scan[i_in - j]
        kappa = np.sqrt(np.maximum(-gap[i_in::-1], 0.0)) * (scan[i_in::-1] - origin)
        decay = np.cumsum(kappa) * (t_scan[1] - t_scan[0])
        deep = np.flatnonzero(decay >= POLE_SIDE_EFOLDS)
        r_min = float(scan[i_in - deep[0]]) if deep.size else prob.wall
        span = math.log(r_max - origin) - math.log(r_min - origin)
    else:
        r_min = max(prob.wall, r_in - 2.2 / p.a)
        span = r_max - r_min
    k_max = float(np.max(k_local))
    n_points = math.ceil(span * k_max / MAX_KH)
    n_points = min(max(MIN_GRID_POINTS, n_points), SUGGESTED_MAX_GRID_POINTS)
    return OracleConfig(r_min=r_min, r_max=r_max, grid_points=n_points)


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
                "flag_factor": FLAG_FACTOR,
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


def compare(closed_form: list[float], oracle: OracleSpectrum) -> ComparisonReport:
    """Pair levels by index and report deviations.

    A deviation exceeding FLAG_FACTOR (10) times the oracle's own
    discretization error estimate is flagged; the JSON report echoes the
    factor.  A level-count mismatch is reported, not fatal.
    """
    closed_vals = [float(c) for c in closed_form]
    report = ComparisonReport(closed_count=len(closed_vals), oracle_count=len(oracle.eigenvalues))
    for idx in range(min(len(closed_vals), len(oracle.eigenvalues))):
        deviation = abs(closed_vals[idx] - float(oracle.eigenvalues[idx]))
        err = float(oracle.error_estimates[idx])
        flagged = deviation > FLAG_FACTOR * err
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
