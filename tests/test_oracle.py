import json
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import toeplitz

from crosscheck.nodes import node_count
from crosscheck.substituted import pekeris_centrifugal, sweep
from qmorse import builtin, oracle
from qmorse.errors import DomainError
from qmorse.oracle import (
    KINETIC_BAND,
    MAX_GRID_POINTS,
    MIN_GRID_POINTS,
    MIN_RADIUS,
    POLE_WALL,
    SUGGESTED_MAX_GRID_POINTS,
    ComparisonReport,
    GridMap,
    LevelComparison,
    OracleConfig,
    compare,
    pole_wall,
    problem,
    solve,
    suggest_config,
)
from qmorse.potential import MassModel, PotentialParams, effective_potential, morse_potential
from qmorse.reference import TABLE_MOLECULE
from qmorse.spectrum import QuantumState, bound_ladder, spectrum_grid
from qmorse.units import hbar2_over_2mu
from qmorse.wavefunctions import radial_wavefunction


def _closed_levels(p, mm, l, n_top):
    """The bound levels n <= n_top, one state at a time, on the literal well (+ v3)."""
    out = []
    for n in range(n_top + 1):
        res = spectrum_grid(p, mm, n, l).raise_fault()
        if not res.bound:
            break
        out.append(float(res.energy) + p.v3)
    return out


def _self_test_problem(w, b, threshold):
    """A problem of its own W and B on the plain r coordinate (no mass pole)."""
    mol = builtin("H2")
    base = problem(PotentialParams.from_molecule(mol, 1.0), MassModel.from_molecule(mol), 0)
    return replace(base, w=w, b=b, threshold=threshold, origin=None)


def test_harmonic_oscillator_self_test():
    # quadratic well with constant weight: levels must be (k + 1/2) hbar omega
    h22m = hbar2_over_2mu(1.0)
    k_spring = 5.0
    omega = math.sqrt(2.0 * h22m * k_spring)
    b_const = 1.0 / h22m
    x0 = 5.0
    cfg = OracleConfig(r_min=1.0, r_max=9.0, grid_points=3000)
    spectrum = solve(_self_test_problem(
        lambda r: b_const * 0.5 * k_spring * (r - x0) ** 2,
        lambda r: b_const * np.ones_like(np.asarray(r)),
        threshold=2.0,
    ), cfg)
    for k in range(10):
        exact = (k + 0.5) * omega
        assert spectrum.eigenvalues[k] == pytest.approx(exact, rel=1e-6)


def test_h2_ground_state_matches_reference(h2_ref):
    p = PotentialParams.from_molecule(h2_ref, 1.0)
    mm = MassModel.from_molecule(h2_ref, 0.0)
    closed = _closed_levels(p, mm, 0, 2)
    prob = problem(p, mm, 0)
    spectrum = solve(prob, suggest_config(prob, e_top=closed[-1] + 0.1))
    # reference ground level at -4.47601 eV below dissociation: add back v3
    assert spectrum.eigenvalues[0] - p.v3 == pytest.approx(-4.47601, abs=2e-5)


def test_eigenvalues_strictly_increasing(h2_ref):
    p = PotentialParams.from_molecule(h2_ref, 1.0)
    mm = MassModel.from_molecule(h2_ref, 0.0)
    prob = problem(p, mm, 0)
    spectrum = solve(prob, suggest_config(prob))
    assert np.all(np.diff(spectrum.eigenvalues) > 0)


def test_spacing_refinement_gains_two_orders():
    # 25-point stencil: each 1.5x finer spacing cuts the worst level error by
    # at least 100x (about 1.5^24 for smooth profiles) until roundoff, which
    # is below 1e-11 eV on these grids; levels above n = 74 feel the 8 A wall.
    # The plain r coordinate (origin None), where 511 points are coarse
    # for CO; the Pekeris problem's own log grid is already at 1e-8 eV there
    mol = builtin("CO")
    p = PotentialParams.from_molecule(mol, 1.0)
    mm = MassModel.from_molecule(mol, 0.0)
    exact = bound_ladder(p, mm, 0).energy[:75] + p.v3
    prob = replace(problem(p, mm, 0), origin=None)
    errors = []
    for n_pts in (511, 767, 1151, 1727, 2591):  # n + 1 = 512 * 1.5^k
        cfg = OracleConfig(r_min=0.6, r_max=8.0, grid_points=n_pts)
        levels = solve(prob, cfg).eigenvalues
        errors.append(float(np.max(np.abs(levels[:75] - exact))))
    assert errors[0] > 1e-3
    for coarse, fine in zip(errors, errors[1:]):
        assert fine <= max(coarse / 100.0, 1e-11), errors


# every molecule at delta < 0.5 and l in {0, 5}, and the delta = 0.5 cells
# short of the turnover, one of them with its inner wall at POLE_WALL
CALIBRATED_CELLS = [(name, delta, l) for l in (0, 5) for delta in (0.0, 0.05, 0.3)
                    for name in ("CO", "H2", "HCl", "LiH")] + [("LiH", 0.5, 0), ("H2-ref", 0.5, 3)]


@pytest.mark.parametrize("name, delta, l", CALIBRATED_CELLS,
                         ids=[f"{l}-{delta}-{name}" for name, delta, l in CALIBRATED_CELLS])
def test_error_estimate_is_calibrated(name, delta, l):
    # the reduced problems are solved exactly by the closed form, so the
    # deviation is the oracle's true error: the estimate must match it
    mol = builtin(name)
    p = PotentialParams.from_molecule(mol, 1.0)
    mm = MassModel.from_molecule(mol, delta)
    prob = problem(p, mm, l)
    cfg = suggest_config(prob)
    report = compare((bound_ladder(p, mm, l).energy + p.v3).tolist(), solve(prob, cfg))
    assert not report.count_mismatch
    worst = max(lv.deviation / lv.oracle_error for lv in report.levels)
    assert 0.05 <= worst <= 2.0, worst
    assert max(lv.oracle_error for lv in report.levels) <= 1e-5


@pytest.mark.parametrize("name, l", [("CO", 5), ("HCl", 10), ("LiH", 3)])
def test_constant_mass_pekeris_oracle_resolves_deep_ladders(name, l):
    # at q = 2 a uniform r grid ran into the point cap: estimates up to 2.4 eV
    # and HCl found 18 of 50 levels; t = ln r resolves every level
    mol = builtin(name)
    p = PotentialParams.from_molecule(mol, 2.0)
    mm = MassModel.from_molecule(mol, 0.0)
    prob = problem(p, mm, l)
    cfg = suggest_config(prob)
    assert cfg.grid_points < SUGGESTED_MAX_GRID_POINTS
    report = compare((bound_ladder(p, mm, l).energy + p.v3).tolist(), solve(prob, cfg))
    assert not report.count_mismatch
    assert not any(lv.flagged for lv in report.levels)
    assert max(lv.oracle_error for lv in report.levels) <= 1e-5


def test_constant_mass_pekeris_cells_fit_in_635_points():
    # the five delta = 0 oracle_verify cells: 3577 points on a uniform r grid,
    # 978 on t = ln r, 607 on the mapped log grid
    cells = [("CO", 5), ("HCl", 10), ("LiH", 3), ("H2-ref", 7), ("H2", 0)]
    total = 0
    for name, l in cells:
        mol = builtin(name)
        p, mm = PotentialParams.from_molecule(mol, 1.0), MassModel.from_molecule(mol, 0.0)
        total += suggest_config(problem(p, mm, l)).grid_points
    assert total <= 635, total


# the 20 oracle_verify cells but HCl delta = 0.5 l = 7, which has no allowed region
ORACLE_VERIFY_CELLS = [
    ("H2", 0.0, 0), ("H2", 0.05, 3), ("H2", 0.3, 7), ("H2", 0.5, 10),
    ("H2-ref", 0.0, 7), ("H2-ref", 0.05, 10), ("H2-ref", 0.3, 0), ("H2-ref", 0.5, 3),
    ("LiH", 0.0, 3), ("LiH", 0.05, 7), ("LiH", 0.3, 10), ("LiH", 0.5, 0),
    ("HCl", 0.0, 10), ("HCl", 0.05, 0), ("HCl", 0.3, 3),
    ("CO", 0.0, 5), ("CO", 0.05, 9), ("CO", 0.3, 2), ("CO", 0.5, 6),
]


def _solve_once_args(monkeypatch, name, delta, l):
    """The reported and the check solve's (x_lo, x_hi, n) for one suggested cell."""
    calls = []
    solve_once = oracle._solve_once

    def spy(*args):
        calls.append(args[2:5])
        return solve_once(*args)

    mol = builtin(name)
    prob = problem(PotentialParams.from_molecule(mol, 1.0), MassModel.from_molecule(mol, delta), l)
    with monkeypatch.context() as patch:
        patch.setattr(oracle, "_solve_once", spy)
        solve(prob, suggest_config(prob))
    assert len(calls) == 2
    return calls


@pytest.mark.parametrize("name, delta, l, inner, outer", [
    ("H2", 0.3, 0, False, False),  # both walls deep in the decay
    ("LiH", 0.5, 0, True, False),  # inner wall held at POLE_WALL: 3.6 e-folds
    ("CO", 0.5, 6, True, True),  # past the turnover the top level reaches both walls
])
def test_check_solve_widens_only_undecayed_walls(monkeypatch, name, delta, l, inner, outer):
    (lo, hi, n), (check_lo, check_hi, check_n) = _solve_once_args(monkeypatch, name, delta, l)
    assert (check_lo < lo, check_hi > hi) == (inner, outer)
    assert check_lo <= lo and check_hi >= hi
    assert check_n == math.ceil(1.25 * (check_hi - check_lo) / (hi - lo) * (n + 1)) - 1
    if not (inner or outer):
        assert (check_lo, check_hi, check_n) == (lo, hi, math.ceil(1.25 * (n + 1)) - 1)


def test_oracle_verify_solves_fit_in_2840_and_3770_points(monkeypatch):
    # the reported and the check solves: 5171 and 9649 points with check solves
    # widened on both walls, 5171 and 7218 widening only undecayed walls, and
    # 2707 and 3592 on the mapped log grid
    total = check_total = 0
    for name, delta, l in ORACLE_VERIFY_CELLS:
        (_, _, n), (_, _, check_n) = _solve_once_args(monkeypatch, name, delta, l)
        total += n
        check_total += check_n
    assert total <= 2840, total
    assert check_total <= 3770, check_total


@pytest.mark.parametrize("name", ["H2", "H2-ref"])
def test_suggested_grid_is_not_floored(name):
    # MAX_KH alone sizes the grid: a light molecule's few levels need few
    # points, and the coarse grid still meets the closed form within its estimate
    mol = builtin(name)
    p = PotentialParams.from_molecule(mol, 1.0)
    mm = MassModel.from_molecule(mol, 0.3)
    prob = problem(p, mm, 0)
    cfg = suggest_config(prob)
    assert cfg.grid_points < 150
    report = compare((bound_ladder(p, mm, 0).energy + p.v3).tolist(), solve(prob, cfg))
    assert not report.count_mismatch
    for lv in report.levels:
        assert lv.deviation <= 2.0 * lv.oracle_error, lv


def test_eigenvector_node_counts(h2_ref):
    p = PotentialParams.from_molecule(h2_ref, 1.0)
    mm = MassModel.from_molecule(h2_ref, 0.0)
    prob = problem(p, mm, 0)
    cfg = OracleConfig(r_min=1e-3, r_max=14.0, grid_points=2500, want_vectors=True,
                       grid_map=suggest_config(prob).grid_map)
    spectrum = solve(prob, cfg)
    for n in range(6):
        assert node_count(spectrum.eigenvectors[:, n]) == n


def test_ground_state_overlap_with_analytic(h2_ref):
    p = PotentialParams.from_molecule(h2_ref, 1.0)
    mm = MassModel.from_molecule(h2_ref, 0.0)
    prob = problem(p, mm, 0)
    cfg = OracleConfig(r_min=1e-3, r_max=14.0, grid_points=3000, want_vectors=True,
                       grid_map=suggest_config(prob).grid_map)
    spectrum = solve(prob, cfg)
    grid = spectrum.grid
    analytic, _ = radial_wavefunction(p, mm, QuantumState(0, 0), grid)
    h = grid[1] - grid[0]
    numeric = spectrum.eigenvectors[:, 0]
    overlap = abs(np.sum(numeric * analytic) * h)
    overlap /= math.sqrt(np.sum(numeric**2) * h * np.sum(analytic**2) * h)
    assert overlap > 0.9999


def test_pekeris_mode_with_varying_mass_matches_closed_form(h2):
    p = PotentialParams.from_molecule(h2, 1.0)
    mm = MassModel.from_molecule(h2, 0.3)
    closed = _closed_levels(p, mm, 0, 40)
    prob = problem(p, mm, 0)
    spectrum = solve(prob, suggest_config(prob))
    report = compare(closed, spectrum)
    assert report.closed_count == report.oracle_count
    assert report.max_deviation < 1e-5


def test_pdm_pole_inside_domain_rejected(h2):
    p = PotentialParams.from_molecule(h2, 1.0)
    mm = MassModel.from_molecule(h2, 0.5)  # pole at ~0.385 A
    cfg = OracleConfig(r_min=0.01, r_max=10.0)
    with pytest.raises(DomainError, match="pole"):
        solve(problem(p, mm, 0), cfg)


def test_threshold_values(h2):
    p = PotentialParams.from_molecule(h2, 1.0)
    mm = MassModel.from_molecule(h2, 0.0)
    assert problem(p, mm, 10, "exact").threshold == pytest.approx(p.v3)
    assert problem(p, mm, 10, "pekeris").threshold > p.v3


@pytest.mark.parametrize("delta", [0.0, 0.3])
@pytest.mark.parametrize("l", [0, 10])
def test_reduced_w_over_b_tends_to_the_threshold(h2, delta, l):
    # z = e^-60 at r_e + 60/a: W/B = hbar^2 a^2/2m0 (beta1 z^2 - beta2 z + c0)
    # is c0's share, v3 + offset, to roundoff
    p = PotentialParams.from_molecule(h2, 1.0)
    mm = MassModel.from_molecule(h2, delta)
    prob = problem(p, mm, l, "pekeris")
    r = np.array([p.r_e + 60.0 / p.a])
    assert float(prob.w(r)[0] / prob.b(r)[0]) == pytest.approx(prob.threshold, rel=1e-14)


@pytest.mark.parametrize("delta", [0.0, 0.3])
def test_exact_mode_w_is_the_effective_potential(h2, delta):
    p = PotentialParams.from_molecule(h2, 1.0)
    mm = MassModel.from_molecule(h2, delta)
    w_fn = problem(p, mm, 5, "exact").w
    r = np.linspace(p.r_e - 0.5 / p.a, p.r_e + 30.0 / p.a, 400)
    assert np.array_equal(w_fn(r), effective_potential(p, mm, 5, r))


@pytest.mark.parametrize("name", ["H2", "CO"])
def test_pekeris_mode_at_delta_0_is_the_constant_mass_pekeris_problem(name):
    # the reduced problem's delta -> 0 limit: expanded centrifugal term plus
    # 2 m0 V / hbar^2, with the constant weight 2 m0 / hbar^2 bit for bit
    mol = builtin(name)
    p = PotentialParams.from_molecule(mol, 1.0)
    mm = MassModel.from_molecule(mol, 0.0)
    prob = problem(p, mm, 5, "pekeris")
    w_fn, b_fn = prob.w, prob.b
    r = np.linspace(max(MIN_RADIUS, p.r_e - 2.0 / p.a), p.r_e + 30.0 / p.a, 400)
    inv_h22m = 1.0 / hbar2_over_2mu(mm.m0)
    want = pekeris_centrifugal(p, 5, r) + inv_h22m * morse_potential(p, r)
    np.testing.assert_allclose(w_fn(r), want, rtol=1e-12, atol=0.0)
    assert np.all(b_fn(r) == inv_h22m)


def test_substituted_gap_matches_the_readme():
    # the README's figures for H2 l = 0: the substituted expansion's gap at
    # delta = 0.05 and 0.5 to one digit (measured 1.16e-4 and 7.82e-3 eV),
    # and the reduced problem's largest gap (measured 2.1e-9 to 7.4e-8 eV on the mapped grid)
    readme = " ".join((Path(__file__).resolve().parents[1] / "README.md").read_text().split())
    low, high, reduced_bound = map(float, re.search(
        r"that gap is (\S+) eV at delta = 0\.05 up to (\S+) eV at delta = 0\.5, while the"
        r" reduced problem agrees with the closed form to (\S+) eV or better", readme).groups())
    rows = sweep()  # delta = 0.05, 0.1, 0.2, 0.3, 0.4, 0.5
    assert [levels for _, levels, _, _ in rows] == [18, 18, 20, 21, 24, 34]
    assert float(f"{rows[0][3]:.0e}") == low and float(f"{rows[-1][3]:.0e}") == high
    assert max(reduced for _, _, reduced, _ in rows) <= reduced_bound


def test_compare_empty_closed_form(h2_ref):
    p = PotentialParams.from_molecule(h2_ref, 1.0)
    mm = MassModel.from_molecule(h2_ref, 0.0)
    prob = problem(p, mm, 0)
    cfg = OracleConfig(r_min=1e-3, r_max=12.0, grid_points=1500,
                       grid_map=suggest_config(prob).grid_map)
    spectrum = solve(prob, cfg)
    report = compare([], spectrum)
    assert report.levels == []
    assert report.closed_count == 0
    assert report.count_mismatch


def test_report_serialization(h2_ref):
    p = PotentialParams.from_molecule(h2_ref, 1.0)
    mm = MassModel.from_molecule(h2_ref, 0.0)
    prob = problem(p, mm, 0)
    cfg = OracleConfig(r_min=1e-3, r_max=12.0, grid_points=1500,
                       grid_map=suggest_config(prob).grid_map)
    spectrum = solve(prob, cfg)
    closed = _closed_levels(p, mm, 0, 3)
    report = compare(closed, spectrum)
    payload = json.loads(report.to_json())
    assert payload["closed_count"] == len(closed)
    assert len(payload["levels"]) == len(closed)
    text = report.to_text()
    assert "closed form" in text and "levels:" in text


def _reference_json(report):
    return json.dumps({
        "closed_count": report.closed_count, "oracle_count": report.oracle_count,
        "count_mismatch": report.count_mismatch, "flag_factor": oracle.FLAG_FACTOR,
        "max_deviation_eV": report.max_deviation,
        "levels": [{"index": lv.index, "closed_form_eV": lv.closed_form, "oracle_eV": lv.oracle,
                    "oracle_error_eV": lv.oracle_error, "deviation_eV": lv.deviation,
                    "flagged": lv.flagged} for lv in report.levels],
    }, indent=2, sort_keys=True)


@pytest.mark.parametrize("name, delta, l", [("CO", 0.5, 6), ("H2", 0.3, 5)])
def test_report_json_is_what_json_dumps_writes(name, delta, l):
    mol = builtin(name)
    prob = problem(PotentialParams.from_molecule(mol, 1.0), MassModel.from_molecule(mol, delta), l)
    report = compare(prob.ladder.tolist(), solve(prob, suggest_config(prob)))
    assert report.count_mismatch == (name == "CO")
    assert report.to_json() == _reference_json(report)


def test_report_json_writes_non_finite_floats_as_json_does():
    odd = [LevelComparison(0, math.nan, math.inf, -math.inf, 1e-300, True),
           LevelComparison(1, -0.0, 5e-324, 1.7976931348623157e308, math.nan, False)]
    for report in (ComparisonReport(levels=odd, closed_count=3, oracle_count=2),
                   ComparisonReport(levels=odd[:1], closed_count=1, oracle_count=1),
                   ComparisonReport()):
        assert report.to_json() == _reference_json(report)
    assert "NaN" in ComparisonReport(levels=odd).to_json()


def test_config_validation(h2):
    with pytest.raises(DomainError):
        OracleConfig(r_min=-1.0, r_max=2.0)
    with pytest.raises(DomainError):
        OracleConfig(r_min=1.0, r_max=0.5)
    with pytest.raises(DomainError):
        OracleConfig(r_min=0.1, r_max=2.0, grid_points=MIN_GRID_POINTS - 1)
    with pytest.raises(DomainError):  # the mode lives in the problem
        problem(PotentialParams.from_molecule(h2, 1.0), MassModel.from_molecule(h2), 0, "bogus")


def test_config_accepts_one_stencil():
    assert MIN_GRID_POINTS == 2 * (len(KINETIC_BAND) - 1) + 1 == 25
    assert OracleConfig(r_min=0.1, r_max=2.0, grid_points=MIN_GRID_POINTS).grid_points == 25


@pytest.mark.parametrize("bad", [
    dict(r_max=math.inf),
    dict(r_min=math.nan),
    dict(grid_points=1e9 + 0.5),
    dict(grid_points=math.nan),
    dict(grid_points=2000.0),
    dict(grid_points=True),
    dict(grid_points=MAX_GRID_POINTS + 1),
    dict(grid_map=None),
    dict(grid_map=(1.0, 0.0, 0.0, 1.0)),
], ids=["r_max-inf", "r_min-nan", "grid-huge-float", "grid-nan", "grid-float", "grid-bool",
        "grid-above-cap", "map-none", "map-tuple"])
def test_config_rejects_bad_input(bad):
    with pytest.raises(DomainError):
        OracleConfig(**{"r_min": 0.1, "r_max": 2.0, **bad})


@pytest.mark.parametrize("field, value", [
    (field, value) for field in ("a", "b", "t_m", "width") for value in (math.nan, math.inf)
] + [("a", 0.0), ("a", -1.0), ("b", -1e-300), ("width", 0.0), ("width", -1.0)])
def test_grid_map_rejects_bad_input(field, value):
    # X' = a + b sech^2 must be finite and positive everywhere
    with pytest.raises(DomainError, match="grid map"):
        GridMap(**{field: value})


@pytest.mark.parametrize("mode", ["pekeris", "exact"])
@pytest.mark.parametrize("delta", [0.0, 0.3])
def test_suggest_config_rejects_a_nan_e_top(h2, delta, mode):
    # a NaN e_top is no energy, not an energy with no allowed region
    prob = problem(PotentialParams.from_molecule(h2, 1.0), MassModel.from_molecule(h2, delta), 0,
                   mode)
    with pytest.raises(DomainError, match="^e_top must be a number, got nan$"):
        suggest_config(prob, e_top=math.nan)
    with pytest.raises(DomainError, match="^no classically allowed region below e_top$"):
        suggest_config(prob, e_top=-math.inf)


def test_truncated_box_estimate_covers_deviation(h2_ref):
    # a box cut at 3 A squeezes the upper levels; the check solve's wider
    # wall must see it, so every deviation stays within twice its estimate
    p = PotentialParams.from_molecule(h2_ref, 1.0)
    mm = MassModel.from_molecule(h2_ref, 0.0)
    prob = problem(p, mm, 0)
    spectrum = solve(prob, OracleConfig(r_min=1e-3, r_max=3.0, grid_points=2000,
                                        grid_map=suggest_config(prob).grid_map))
    report = compare((bound_ladder(p, mm, 0).energy + p.v3).tolist(), spectrum)
    assert max(lv.deviation for lv in report.levels) > 1e-3  # the box really bites
    for lv in report.levels:
        assert lv.deviation <= 2.0 * lv.oracle_error, lv


def test_pole_side_wall_follows_the_decay_of_the_top_level():
    # CO delta = 0.3: most of the span down to the w = 1e-5 wall is forbidden
    # at the top level, which has decayed long before it
    mol = builtin("CO")
    p = PotentialParams.from_molecule(mol, 1.0)
    mm = MassModel.from_molecule(mol, 0.3)
    cfg = suggest_config(problem(p, mm, 2))
    assert cfg.grid_points <= 700
    assert cfg.r_min > pole_wall(p, mm, POLE_WALL)


@pytest.mark.parametrize("name", ["H2", "CO"])
def test_allowed_pole_side_keeps_the_deepest_wall(name):
    # at delta = 0.55 W/B at the pole-side wall lies below the threshold, so
    # a top level near the threshold is classically allowed there
    mol = builtin(name)
    p = PotentialParams.from_molecule(mol, 1.0)
    mm = MassModel.from_molecule(mol, 0.55)
    prob = problem(p, mm, 0, "pekeris")
    e_top = prob.threshold - 0.5
    wall = np.array([pole_wall(p, mm, POLE_WALL)])
    assert prob.w(wall)[0] / prob.b(wall)[0] < e_top
    cfg = suggest_config(prob, e_top=e_top)
    assert cfg.r_min == wall[0]


def test_thin_pole_side_keeps_the_deepest_wall():
    # CO delta = 0.5: the top level is forbidden at the w = 1e-5 wall, but the
    # forbidden sliver is too thin for it to decay POLE_SIDE_EFOLDS there
    mol = builtin("CO")
    p = PotentialParams.from_molecule(mol, 1.0)
    mm = MassModel.from_molecule(mol, 0.5)
    prob = problem(p, mm, 0, "pekeris")
    wall = np.array([pole_wall(p, mm, POLE_WALL)])
    assert prob.w(wall)[0] / prob.b(wall)[0] > prob.ladder[-1]
    assert suggest_config(prob).r_min == wall[0]


@pytest.mark.parametrize("delta", [0.05, 0.3])
def test_shallow_inner_wall_estimate_covers_deviation(h2, delta):
    # an inner wall at 0.35 A squeezes the upper levels from the pole side
    # (virtual pole at delta = 0.05, real at 0.3); the check solve's deeper
    # inner wall must see it, so every deviation stays within twice its estimate
    p = PotentialParams.from_molecule(h2, 1.0)
    mm = MassModel.from_molecule(h2, delta)
    prob = problem(p, mm, 0)
    cfg = replace(suggest_config(prob), r_min=0.35)
    report = compare((bound_ladder(p, mm, 0).energy + p.v3).tolist(), solve(prob, cfg))
    assert not report.count_mismatch
    assert report.max_deviation > 1e-4  # the wall really bites
    for lv in report.levels:
        assert lv.deviation <= 2.0 * lv.oracle_error, lv


@pytest.mark.parametrize("name, delta, l", [("H2", 0.0, 0), ("H2-ref", 0.5, 3), ("HCl", 0.3, 3)])
def test_dense_eigvalsh_of_the_same_matrix_agrees(name, delta, l):
    # the full symmetric matrix of the same stencil on the mapped grid, its
    # weights formed here from the closed-form derivatives of
    # X = a t + b w tanh((t - t_m)/w), solved by numpy's dense eigvalsh
    # instead of the banded LAPACK driver
    mol = builtin(name)
    p = PotentialParams.from_molecule(mol, 1.0)
    mm = MassModel.from_molecule(mol, delta)
    prob = problem(p, mm, l)
    cfg = suggest_config(prob)
    spectrum = solve(prob, cfg)
    origin, gmap = prob.origin, cfg.grid_map
    assert gmap.b > 0.0  # a fitted map, not the plain log grid
    x_lo, x_hi = (gmap.x(math.log(r - origin)) for r in (cfg.r_min, cfg.r_max))
    n = cfg.grid_points
    h = (x_hi - x_lo) / (n + 1)
    t = gmap.t(x_lo + h * np.arange(1, n + 1))
    s = (t - gmap.t_m) / gmap.width
    sech2, tanh = 1.0 / np.cosh(s) ** 2, np.tanh(s)
    d1 = gmap.a + gmap.b * sech2  # X', X'' and X'''
    d2 = -2.0 * gmap.b / gmap.width * sech2 * tanh
    d3 = 2.0 * gmap.b / gmap.width**2 * sech2 * (3.0 * tanh**2 - 1.0)
    r_minus_origin = np.exp(t)
    dr_dx = r_minus_origin / d1
    # W^_x = (e^{2t} W + 1/4)/X'^2 + (X' X'''/2 - 3 X''^2/4)/X'^4, B^_x = e^{2t} B/X'^2
    w_hat = (prob.w(origin + r_minus_origin) * dr_dx**2 + 0.25 / d1**2
             + (0.5 * d1 * d3 - 0.75 * d2**2) / d1**4)
    b_hat = prob.b(origin + r_minus_origin) * dr_dx**2
    first_row = np.zeros(n)
    first_row[:len(KINETIC_BAND)] = KINETIC_BAND / h**2
    scale = 1.0 / np.sqrt(b_hat)
    dense = (toeplitz(first_row) + np.diag(w_hat)) * scale[:, None] * scale[None, :]
    vals = np.linalg.eigvalsh(dense)
    vals = vals[vals <= spectrum.threshold - 1e-12]
    floor = 16.0 * np.finfo(float).eps * np.max(np.sum(np.abs(dense), axis=1))
    assert len(vals) == len(spectrum.eigenvalues) > 0
    assert np.all(np.abs(vals - spectrum.eigenvalues) <= floor)


def test_grid_map_inverts_and_keeps_the_levels_of_the_plain_log_grid(monkeypatch):
    # X rises strictly and its inverse round-trips to a few ulp; the mapped
    # and the plain log-grid solves of one cell agree within their estimates
    mol = builtin("CO")
    p = PotentialParams.from_molecule(mol, 1.0)
    mm = MassModel.from_molecule(mol, 0.3)
    prob = problem(p, mm, 2)
    profiles = []
    fit_map = oracle._fit_map

    def spy(t, need):
        profiles.append((t, need))
        return fit_map(t, need)

    monkeypatch.setattr(oracle, "_fit_map", spy)
    cfg = suggest_config(prob)
    [(t_scan, need)] = profiles
    assert (t_scan[0], t_scan[-1]) == (math.log(cfg.r_min - prob.origin),
                                       math.log(cfg.r_max - prob.origin))
    gmap = cfg.grid_map
    t = np.linspace(math.log(cfg.r_min - prob.origin) - 1.0,
                    math.log(cfg.r_max - prob.origin) + 1.0, 5001)
    x = gmap.x(t)
    assert np.all(np.diff(x) > 0.0)
    ulp_x, ulp_t = np.spacing(np.max(np.abs(x))), np.spacing(np.max(np.abs(t)))
    assert np.max(np.abs(gmap.x(gmap.t(x)) - x)) <= 4.0 * ulp_x
    # where the density X' is low, t is known to ulp(x)/X' at best
    assert np.all(np.abs(gmap.t(x) - t) <= 4.0 * (ulp_t + ulp_x / gmap.derivatives(t)[0]))
    assert np.array_equal(GridMap().t(x), x)  # the plain log grid: X = t
    # the plain log grid on the same walls, sized by the same rule from the same
    # scan: the shallowest level's need times the spacing in t at most
    # MAPPED_KH_SHARE * MAX_KH
    plain_n = math.ceil(float(t_scan[-1] - t_scan[0]) * float(np.max(need))
                        / (oracle.MAPPED_KH_SHARE * oracle.MAX_KH))
    plain_cfg = replace(cfg, grid_points=plain_n, grid_map=GridMap())
    assert cfg.grid_points < plain_cfg.grid_points < SUGGESTED_MAX_GRID_POINTS
    mapped, flat = solve(prob, cfg), solve(prob, plain_cfg)
    assert len(mapped.eigenvalues) == len(flat.eigenvalues) == len(prob.ladder)
    assert np.all(np.abs(mapped.eigenvalues - flat.eigenvalues)
                  <= mapped.error_estimates + flat.error_estimates)


def test_threshold_below_the_well_skips_the_check_solve(monkeypatch):
    # every level of the harmonic self-test well lies above 0, so a threshold
    # below it leaves no level and needs no check solve to size estimates
    calls = []
    solve_once = oracle._solve_once

    def spy(*args):
        calls.append(args)
        return solve_once(*args)

    monkeypatch.setattr(oracle, "_solve_once", spy)
    b_const = 1.0 / hbar2_over_2mu(1.0)
    spectrum = solve(_self_test_problem(
        lambda r: b_const * 2.5 * (r - 5.0) ** 2,
        lambda r: b_const * np.ones_like(np.asarray(r)),
        threshold=-1.0,
    ), OracleConfig(r_min=1.0, r_max=9.0, grid_points=500))
    assert len(calls) == 1
    assert spectrum.eigenvalues.shape == spectrum.error_estimates.shape == (0,)
