"""Independent banded high-order eigenvalue oracle.

Solves -u'' + W(r) u = E B(r) u, with B(r) = 2 m(r)/hbar^2, between two
Dirichlet walls, and returns the levels below the continuum threshold with a
per-level error estimate.

Grids.  Every problem but one is solved on t = ln(r - r_o), with the
origin r_o that ``problem`` sets.  At delta > 0 r_o is the (possibly
negative, virtual) mass-pole radius: high levels of the reduced problem
oscillate ever faster toward the pole while their outer tails stretch toward
large r, and the log coordinate resolves both ends at once.  The constant-mass
Pekeris problem (delta = 0) takes r_o = 0, t = ln r.  On t the points are
uniform in a second coordinate x = X(t), the ``GridMap`` that
``suggest_config`` fits to the shallowest level it targets, from the one
scan that also sets the walls and the point count: its density
X'(t) = A + B sech^2((t - t_m)/w) follows that level's need max(k, kappa/2)
in t, dense where the level oscillates fast and sparse where it oscillates
slowly or has decayed, as a mapped grid does (Fattal, Baer & Kosloff, Phys.
Rev. E 53, 1217 (1996); Kokoouline et al., J. Chem. Phys. 110, 9865 (1999)).
That takes about half the points of the plain log grid (B = 0), a quarter of
its O(p N^2) banded reduction, and leaves the calibration as it was.  Exact
mode at delta = 0 alone keeps a uniform r grid and the identity map: on the
log grid its H2-ref l = 10 ladder would find 14 of the closed form's 17
levels, which the benchmark's check does not yet expect.

One equation for every grid.  On t the Sturm-Liouville form
-d/dt[(1/r') du/dt] + r' W u = E r' B u becomes, with u = e^{t/2} phi,

    -phi'' + W^ phi = E B^ phi,   W^ = e^{2t} W + 1/4,   B^ = e^{2t} B,

and the Liouville transformation to x, phi = X'^{-1/2} psi, keeps that form
with W^_x = W^/X'^2 + Q, Q = (X' X'''/2 - 3 X''^2/4)/X'^4, B^_x = B^/X'^2;
the uniform grid is the same equation with x = t = r, W^ = W and B^ = B.
-psi'' is the central (2p+1)-point stencil with p = 12 (Colbert & Miller,
J. Chem. Phys. 96, 1982 (1992), give its p -> infinity limit, the sinc-DVR).
Scaling by B^{-1/2} makes the matrix symmetric with bandwidth p.  LAPACK's
dsbevd reduces it to tridiagonal form (O(p N^2) time, O(p N) memory), dsterf's
root-free QR takes all N eigenvalues in O(N^2), and those below the threshold
are kept.  Once ~5% of them are bound that beats scipy's dsbevx, which bisects
each bound level to 2 safmin.

Error estimate.  Each level's estimate is its difference from a second solve
with spacing h/1.25 in x.  The check solve keeps the reported walls, except that it
widens a wall the shallowest level has not decayed to: where the WKB sum of
sqrt(max(W^ - E B^, 0)) h from that level's innermost (outermost) allowed
point to the inner (outer) wall, read off the reported solve's own grid, is
below WALL_EFOLDS.  Moving a Dirichlet wall shifts a level by ~|u'|^2 at the
wall (Kong & Zettl, J. Differential Equations 126, 389 (1996)), far below the
spacing error once the level has decayed there.  A widened outer wall moves
out by a quarter of the span in t (r on the uniform grid); on the log grid
a widened inner wall moves in by a quarter of the span too, but never past
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

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
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
#: Largest local wavenumber times spacing, in the grid coordinate: on the
#: uniform r grid, and as a share of it on the mapped log grid, whose even
#: density leaves less slack where the shallowest level oscillates slowest.
MAX_KH = 1.5
MAPPED_KH_SHARE = 0.9
#: Weight of the decay rate kappa against the wavenumber k in a mapped grid's
#: point density: the forbidden tails need max(k, KAPPA_WEIGHT kappa).
KAPPA_WEIGHT = 0.5
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
class GridMap:
    """x = X(t) = a t + b w tanh((t - t_m)/w), the grid coordinate, with density
    X'(t) = a + b sech^2((t - t_m)/w) > 0; the default b = 0, a = 1 is the
    problem's plain coordinate t (ln(r - r_o), or r).  Arrays in, arrays out."""

    a: float = 1.0
    b: float = 0.0
    t_m: float = 0.0
    width: float = 1.0

    def __post_init__(self):
        if not (all(map(math.isfinite, (self.a, self.b, self.t_m, self.width)))
                and self.a > 0.0 and self.b >= 0.0 and self.width > 0.0):
            raise DomainError(f"a grid map needs finite a > 0, b >= 0, t_m and width > 0: {self!r}")

    def x(self, t):
        return self.a * t + self.b * self.width * np.tanh((t - self.t_m) / self.width)

    def derivatives(self, t):
        """X', X'' and X''' at t."""
        s = (np.asarray(t, dtype=float) - self.t_m) / self.width
        e = np.exp(-2.0 * np.abs(s))  # sech^2 and tanh without overflow
        sech2, tanh = 4.0 * e / (1.0 + e) ** 2, np.sign(s) * (1.0 - e) / (1.0 + e)
        c = 2.0 * self.b / self.width
        return (self.a + self.b * sech2, -c * sech2 * tanh,
                c / self.width * sech2 * (3.0 * tanh**2 - 1.0))

    def t(self, x):
        """The inverse of ``x``.  X is convex below t_m and concave above, so
        Newton's method from the asymptote on x's side of t_m never overshoots."""
        x = np.asarray(x, dtype=float)
        a, b, t_m, w = self.a, self.b, self.t_m, self.width
        t = np.where(x >= a * t_m, np.maximum(t_m, (x - b * w) / a),
                     np.minimum(t_m, (x + b * w) / a))
        for _ in range(64):
            tanh = np.tanh((t - t_m) / w)
            step = (a * t + b * w * tanh - x) / (a + b * (1.0 - tanh * tanh))
            t = t - step
            if not np.any(np.abs(step) > 1e-14 * (1.0 + np.abs(t))):
                break
        return t


@dataclass(frozen=True)
class OracleConfig:
    """One solve's grid: grid_points points inside [r_min, r_max], uniform in x = grid_map(t)."""

    r_min: float
    r_max: float
    grid_points: int = SUGGESTED_MAX_GRID_POINTS
    grid_map: GridMap = GridMap()

    def __post_init__(self):
        if not isinstance(self.grid_map, GridMap):
            raise DomainError(f"grid_map must be a GridMap, got {self.grid_map!r}")
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


#: ``_fit_map``'s candidate A, B (shares of the peak need) and t_m (offsets from its t)
_FIT_A = np.geomspace(0.005, 0.6, 12)[:, None, None]
_FIT_B = np.array([1.0, 1.15, 1.35, 1.7])[:, None]
_FIT_T_M = np.linspace(-0.6, 0.3, 9)


def _fit_map(t: np.ndarray, need: np.ndarray) -> GridMap:
    """The GridMap whose density covers ``need`` (a point density on the uniform
    samples t) at least cost, the integral of X' over [t[0], t[-1]].

    X' = A + B sech^2((t - t_m)/w) >= need holds everywhere once w reaches
    max |t - t_m| / arccosh((B / (need - A))^(1/2)) over the points where need
    exceeds A; so w follows in closed form from each (A, B, t_m) of a small
    grid around the peak of need, read on 32 block maxima.
    """
    blocks = len(t) // 32
    t_b = t[:32 * blocks].reshape(32, blocks)[:, blocks // 2]
    need_b = need[:32 * blocks].reshape(32, blocks).max(axis=1)
    peak = int(np.argmax(need))
    a = need[peak] * _FIT_A
    b = (need[peak] - a) * _FIT_B
    t_m = t[peak] + _FIT_T_M
    share = (need_b - a[..., None]) / b[..., None]
    with np.errstate(divide="ignore", invalid="ignore"):  # share >= 1 off t_m: no width
        reach = np.arccosh(1.0 / np.sqrt(np.clip(share, 1e-300, 1.0)))
        width = np.divide(np.abs(t_b - t_m[:, None]), reach, where=share > 0.0,
                          out=np.zeros(b.shape[:2] + t_m.shape + t_b.shape))
        width = np.maximum(np.max(width, axis=-1), 1e-3 * (t[-1] - t[0]))
        cost = a * (t[-1] - t[0]) + b * width * (np.tanh((t[-1] - t_m) / width)
                                                 - np.tanh((t[0] - t_m) / width))
    i, j, k = np.unravel_index(np.argmin(np.where(np.isfinite(cost), cost, np.inf)), cost.shape)
    return GridMap(a=float(a[i, 0, 0] / b[i, j, 0]), b=1.0, t_m=float(t_m[k]),
                   width=float(width[i, j, k]))


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
    the reduced problem a second time.  It scans no domain.  Raises
    DomainError for an unknown mode and, before any level is
    built, when the closed form predicts more levels than a grid may have points.
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
        return mass(mm, p, r) / mm.m0 * inv_h22m

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


def _wall_efolds(e, w_hat, b_hat, h):
    """WKB e-folds of decay of a level at e from its innermost allowed point to
    the inner wall and from its outermost allowed point to the outer wall."""
    gap = w_hat - e * b_hat
    allowed = np.flatnonzero(gap < 0.0)
    if not allowed.size:
        return 0.0, 0.0
    kappa_h = np.sqrt(np.maximum(gap, 0.0)) * h
    return float(np.sum(kappa_h[:allowed[0]])), float(np.sum(kappa_h[allowed[-1] + 1:]))


def _solve_once(prob: OracleProblem, gmap: GridMap, x_lo, x_hi, n):
    """Levels below the threshold on n interior points of [x_lo, x_hi], their
    roundoff, and the W^, B^ and spacing h that ``_wall_efolds`` reads.

    x = X(t) is ``gmap`` of t, which is r itself or ln(r - prob.origin)
    on the log grid.  The roundoff is 16 eps ||H||_inf.
    """
    from scipy.linalg import eig_banded

    h = (x_hi - x_lo) / (n + 1)
    t = gmap.t(x_lo + h * np.arange(1, n + 1))
    xp, xpp, xppp = gmap.derivatives(t)
    if prob.origin is None:
        grid, dr_dt, q = t, 1.0, 0.0
    else:
        dr_dt = np.exp(t)
        grid, q = prob.origin + dr_dt, 0.25
    dr_dx = dr_dt / xp
    w_hat = np.asarray(prob.w(grid), dtype=float) * dr_dx**2
    b_hat = np.asarray(prob.b(grid), dtype=float) * dr_dx**2
    w_hat += q / xp**2 + (0.5 * xp * xppp - 0.75 * xpp**2) / xp**4
    if np.any(b_hat <= 0.0) or not np.all(np.isfinite(b_hat)):
        raise DomainError("mass weight B is not positive and finite on the grid")
    if not np.all(np.isfinite(w_hat)):
        raise DomainError("effective potential is not finite on the grid")
    inv_sqrt_b = 1.0 / np.sqrt(b_hat)
    p = len(KINETIC_BAND) - 1
    band = np.zeros((p + 1, n))  # upper form: band[p + i - j, j] = H[i, j] for i <= j
    diag = (KINETIC_BAND[0] / h**2 + w_hat) / b_hat
    band[p] = diag
    off_sum = np.zeros(n)  # sum of |H[i, j]| over j != i
    for k in range(1, p + 1):
        off = KINETIC_BAND[k] / h**2 * inv_sqrt_b[:-k] * inv_sqrt_b[k:]
        band[p - k, k:] = off
        off_sum[:-k] += np.abs(off)
        off_sum[k:] += np.abs(off)
    roundoff = 16.0 * np.finfo(float).eps * float(np.max(np.abs(diag) + off_sum))
    vals = eig_banded(band, eigvals_only=True)
    vals = vals[vals <= float(prob.threshold) - 1e-12]
    return vals, roundoff, w_hat, b_hat, h


def solve(prob: OracleProblem, cfg: OracleConfig) -> OracleSpectrum:
    """All bound levels of the problem on the grid of ``cfg`` (eV, strictly increasing).

    The check solve that sizes the error estimates has spacing h/1.25 on the
    same walls, save that a wall the shallowest level has decayed less than
    WALL_EFOLDS toward moves out by a quarter of the span in t; the inner wall
    moves only on the log grid, and not past ``prob.check_wall``.  A self-test
    solves its own W and B in a ``dataclasses.replace`` of a problem.
    """
    if prob.pole is not None and cfg.r_min <= prob.pole:
        raise DomainError(f"mass pole at r = {prob.pole:.6f} A lies inside the domain; raise r_min")

    def coord(r):
        return r if prob.origin is None else math.log(r - prob.origin)

    gmap = cfg.grid_map
    t_lo, t_hi = coord(cfg.r_min), coord(cfg.r_max)
    x_lo, x_hi = gmap.x(t_lo), gmap.x(t_hi)
    vals, roundoff, *hats = _solve_once(prob, gmap, x_lo, x_hi, cfg.grid_points)
    estimates = np.empty(0)
    if len(vals):
        inner, outer = _wall_efolds(vals[-1], *hats)
        span = t_hi - t_lo
        check_lo, check_hi = x_lo, x_hi
        if prob.origin is not None and inner < WALL_EFOLDS:
            check_lo = min(x_lo, gmap.x(max(t_lo - 0.25 * span, coord(prob.check_wall))))
        if outer < WALL_EFOLDS:
            check_hi = gmap.x(t_hi + 0.25 * span)
        check_n = math.ceil(1.25 * (check_hi - check_lo) / (x_hi - x_lo) * (cfg.grid_points + 1)) - 1
        check_vals, check_roundoff, *_ = _solve_once(prob, gmap, check_lo, check_hi, check_n)
        # a level the check solve lost may lie anywhere up to the threshold
        other = np.full(len(vals), float(prob.threshold))
        shared = min(len(vals), len(check_vals))
        other[:shared] = check_vals[:shared]
        estimates = np.maximum(np.abs(vals - other), max(roundoff, check_roundoff))
    return OracleSpectrum(eigenvalues=vals, error_estimates=estimates)


def _tail_padding(prob: OracleProblem, e_top: float) -> float:
    """8 decay lengths of the level at e_top past the outer turning point, at least 1.5/a."""
    p = prob.p
    b_inf = float(np.asarray(prob.b(np.array([p.r_e + 30.0 / p.a])))[0])
    kappa_tail = math.sqrt(max((prob.threshold - e_top) * b_inf, 1e-12))
    return max(8.0 / kappa_tail, 1.5 / p.a)


def suggest_config(prob: OracleProblem, e_top: float | None = None) -> OracleConfig:
    """Walls, grid map and point count for the levels up to e_top, from one domain scan.

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
    The ``GridMap`` X is fitted to that level's density max(k, KAPPA_WEIGHT
    kappa) in t, sampled 640 times across the domain, and as many points,
    uniform in x = X(t), are taken as put the density over X' times the
    spacing at or below MAPPED_KH_SHARE * MAX_KH everywhere.  The uniform r
    grid (origin None: exact mode at delta = 0) keeps the identity map, is
    padded inward by 2.2/a, where the profile dies super-exponentially, and
    resolves the largest local wavenumber at k h <= MAX_KH.  The point count
    runs from one stencil up to SUGGESTED_MAX_GRID_POINTS.
    """
    if e_top is None:
        if not len(prob.ladder):
            raise DomainError(f"the closed form has no bound level at l = {prob.l}")
        e_top = float(prob.ladder[-1])
    elif math.isnan(e_top):
        raise DomainError("e_top must be a number, got nan")
    e_top = min(e_top, prob.threshold - 1e-12)

    p, origin = prob.p, prob.origin
    if origin is not None:
        t_scan = np.linspace(math.log(prob.wall - origin), math.log(p.r_e + 60.0 / p.a - origin),
                             6000)
        scan = origin + np.exp(t_scan)
        gap = e_top * np.asarray(prob.b(scan)) - np.asarray(prob.w(scan))
        allowed = gap > 0.0
        if not np.any(allowed):
            raise DomainError("no classically allowed region below e_top")
        i_in = int(np.argmax(allowed))
        r_out = float(scan[len(allowed) - 1 - np.argmax(allowed[::-1])])
        # decay[j]: e-folds from the turning point in to scan[i_in - j]
        kappa = np.sqrt(np.maximum(-gap[i_in::-1], 0.0)) * (scan[i_in::-1] - origin)
        decay = np.cumsum(kappa) * (t_scan[1] - t_scan[0])
        deep = np.flatnonzero(decay >= POLE_SIDE_EFOLDS)
        r_min = float(scan[i_in - deep[0]]) if deep.size else prob.wall
        r_max = r_out + _tail_padding(prob, e_top)
        t = np.linspace(math.log(r_min - origin), math.log(r_max - origin), 640)
        r = origin + np.exp(t)
        gap = e_top * np.asarray(prob.b(r)) - np.asarray(prob.w(r))
        need = np.sqrt(np.abs(gap)) * np.where(gap > 0.0, 1.0, KAPPA_WEIGHT) * (r - origin)
        gmap = _fit_map(t, need)
        span_x = float(gmap.x(t[-1]) - gmap.x(t[0]))
        n_points = math.ceil(span_x * float(np.max(need / gmap.derivatives(t)[0]))
                             / (MAPPED_KH_SHARE * MAX_KH))
    else:
        gmap = GridMap()
        scan = np.linspace(max(prob.wall, p.r_e - 12.0 / p.a), p.r_e + 60.0 / p.a, 6000)
        scan = scan[scan > prob.wall]
        w_scan, b_scan = np.asarray(prob.w(scan)), np.asarray(prob.b(scan))
        allowed = w_scan / b_scan < e_top
        if not np.any(allowed):
            raise DomainError("no classically allowed region below e_top")
        r_in = float(scan[int(np.argmax(allowed))])
        r_out = float(scan[len(allowed) - 1 - np.argmax(allowed[::-1])])
        r_min, r_max = max(prob.wall, r_in - 2.2 / p.a), r_out + _tail_padding(prob, e_top)
        k_max = float(np.max(np.sqrt(np.maximum(e_top * b_scan - w_scan, 0.0))))
        n_points = math.ceil((r_max - r_min) * k_max / MAX_KH)
    n_points = min(max(MIN_GRID_POINTS, n_points), SUGGESTED_MAX_GRID_POINTS)
    return OracleConfig(r_min=r_min, r_max=r_max, grid_points=n_points, grid_map=gmap)


@dataclass(frozen=True)
class ComparisonReport:
    """Closed-form and oracle levels paired by index, column by column.

    closed, oracle and error (the oracle's estimate) hold the matched prefix,
    the first min(closed_count, oracle_count) levels; the counts are those of
    the whole ladders.  All in eV.
    """

    closed: np.ndarray
    oracle: np.ndarray
    error: np.ndarray
    closed_count: int
    oracle_count: int

    @cached_property
    def deviation(self) -> np.ndarray:
        return np.abs(self.closed - self.oracle)

    @cached_property
    def flagged(self) -> np.ndarray:
        """A deviation above FLAG_FACTOR estimates (never a NaN one)."""
        return self.deviation > FLAG_FACTOR * self.error

    @property
    def count_mismatch(self) -> bool:
        return self.closed_count != self.oracle_count

    @property
    def max_deviation(self) -> float:
        return max(self.deviation.tolist(), default=0.0)


def compare(closed_form, oracle: OracleSpectrum) -> ComparisonReport:
    """Pair levels by index.

    A deviation exceeding FLAG_FACTOR (10) times the oracle's own
    discretization error estimate is flagged.  A level-count mismatch is
    reported, not fatal.
    """
    closed = np.asarray(closed_form, dtype=float)
    shared = min(len(closed), len(oracle.eigenvalues))
    return ComparisonReport(closed=closed[:shared], oracle=oracle.eigenvalues[:shared],
                            error=oracle.error_estimates[:shared], closed_count=len(closed),
                            oracle_count=len(oracle.eigenvalues))
