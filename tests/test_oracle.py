import json
import math
from dataclasses import replace

import numpy as np
import pytest


from qmorse import builtin
from qmorse.errors import DomainError
from qmorse.oracle import (
    KINETIC_BAND,
    MAX_GRID_POINTS,
    MIN_GRID_POINTS,
    MIN_RADIUS,
    POLE_WALL,
    ComparisonReport,
    OracleConfig,
    build_w_and_b,
    compare,
    continuum_threshold,
    formula_ladder_top,
    pole_wall,
    solve,
    solve_potential,
    suggest_config,
)
from qmorse.pekeris import pekeris_centrifugal
from qmorse.potential import MassModel, PotentialParams, effective_potential, morse_potential
from qmorse.spectrum import QuantumState, bound_ladder, spectrum_grid
from qmorse.units import hbar2_over_2mu
from qmorse.wavefunctions import node_count, radial_wavefunction


def _closed_levels(p, mm, l, n_top):
    """The bound levels n <= n_top, one state at a time, on the literal well (+ v3)."""
    out = []
    for n in range(n_top + 1):
        res = spectrum_grid(p, mm, n, l).raise_fault()
        if not res.bound:
            break
        out.append(float(res.energy) + p.v3)
    return out


def test_harmonic_oscillator_self_test():
    # quadratic well with constant weight: levels must be (k + 1/2) hbar omega
    h22m = hbar2_over_2mu(1.0)
    k_spring = 5.0
    omega = math.sqrt(2.0 * h22m * k_spring)
    b_const = 1.0 / h22m
    x0 = 5.0
    cfg = OracleConfig(r_min=1.0, r_max=9.0, grid_points=3000)
    spectrum = solve_potential(
        lambda r: b_const * 0.5 * k_spring * (r - x0) ** 2,
        lambda r: b_const * np.ones_like(np.asarray(r)),
        cfg,
        threshold=2.0,
    )
    for k in range(10):
        exact = (k + 0.5) * omega
        assert spectrum.eigenvalues[k] == pytest.approx(exact, rel=1e-6)


def test_h2_ground_state_matches_reference(h2_ref):
    p = PotentialParams.from_molecule(h2_ref, 1.0)
    mm = MassModel.from_molecule(h2_ref, 0.0)
    closed = _closed_levels(p, mm, 0, 2)
    cfg = suggest_config(p, mm, 0, e_top=closed[-1] + 0.1)
    spectrum = solve(p, mm, 0, cfg)
    # reference ground level at -4.47601 eV below dissociation: add back v3
    assert spectrum.eigenvalues[0] - p.v3 == pytest.approx(-4.47601, abs=2e-5)


def test_eigenvalues_strictly_increasing(h2_ref):
    p = PotentialParams.from_molecule(h2_ref, 1.0)
    mm = MassModel.from_molecule(h2_ref, 0.0)
    cfg = suggest_config(p, mm, 0)
    spectrum = solve(p, mm, 0, cfg)
    assert np.all(np.diff(spectrum.eigenvalues) > 0)


def test_spacing_refinement_gains_two_orders():
    # 25-point stencil: each 1.5x finer spacing cuts the worst level error by
    # at least 100x (about 1.5^24 for smooth profiles) until roundoff, which
    # is below 1e-11 eV on these grids; levels above n = 74 feel the 8 A wall
    mol = builtin("CO")
    p = PotentialParams.from_molecule(mol, 1.0)
    mm = MassModel.from_molecule(mol, 0.0)
    exact = bound_ladder(p, mm, 0).energy[:75] + p.v3
    errors = []
    for n_pts in (511, 767, 1151, 1727, 2591):  # n + 1 = 512 * 1.5^k
        levels = solve(p, mm, 0, OracleConfig(r_min=0.6, r_max=8.0, grid_points=n_pts)).eigenvalues
        errors.append(float(np.max(np.abs(levels[:75] - exact))))
    assert errors[0] > 1e-3
    for coarse, fine in zip(errors, errors[1:]):
        assert fine <= max(coarse / 100.0, 1e-11), errors


@pytest.mark.parametrize("name", ["H2", "LiH", "HCl", "CO"])
@pytest.mark.parametrize("delta", [0.0, 0.05, 0.3])
@pytest.mark.parametrize("l", [0, 5])
def test_error_estimate_is_calibrated(name, delta, l):
    # the reduced problems are solved exactly by the closed form, so the
    # deviation is the oracle's true error: the estimate must match it
    mol = builtin(name)
    p = PotentialParams.from_molecule(mol, 1.0)
    mm = MassModel.from_molecule(mol, delta)
    cfg = suggest_config(p, mm, l)
    report = compare((bound_ladder(p, mm, l).energy + p.v3).tolist(), solve(p, mm, l, cfg))
    assert not report.count_mismatch
    worst = max(lv.deviation / lv.oracle_error for lv in report.levels)
    assert 0.05 <= worst <= 2.0, worst
    assert max(lv.oracle_error for lv in report.levels) <= 1e-5


@pytest.mark.parametrize("name", ["H2", "H2-ref"])
def test_suggested_grid_is_not_floored(name):
    # MAX_KH alone sizes the grid: a light molecule's few levels need few
    # points, and the coarse grid still meets the closed form within its estimate
    mol = builtin(name)
    p = PotentialParams.from_molecule(mol, 1.0)
    mm = MassModel.from_molecule(mol, 0.3)
    cfg = suggest_config(p, mm, 0)
    assert cfg.grid_points < 150
    report = compare((bound_ladder(p, mm, 0).energy + p.v3).tolist(), solve(p, mm, 0, cfg))
    assert not report.count_mismatch
    for lv in report.levels:
        assert lv.deviation <= 2.0 * lv.oracle_error, lv


def test_eigenvector_node_counts(h2_ref):
    p = PotentialParams.from_molecule(h2_ref, 1.0)
    mm = MassModel.from_molecule(h2_ref, 0.0)
    cfg = OracleConfig(r_min=1e-3, r_max=14.0, grid_points=2500, want_vectors=True)
    spectrum = solve(p, mm, 0, cfg)
    for n in range(6):
        assert node_count(spectrum.eigenvectors[:, n]) == n


def test_ground_state_overlap_with_analytic(h2_ref):
    p = PotentialParams.from_molecule(h2_ref, 1.0)
    mm = MassModel.from_molecule(h2_ref, 0.0)
    cfg = OracleConfig(r_min=1e-3, r_max=14.0, grid_points=3000, want_vectors=True)
    spectrum = solve(p, mm, 0, cfg)
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
    cfg = suggest_config(p, mm, 0)
    spectrum = solve(p, mm, 0, cfg)
    report = compare(closed, spectrum)
    assert report.closed_count == report.oracle_count
    assert report.max_deviation < 1e-5


def test_pdm_pole_inside_domain_rejected(h2):
    p = PotentialParams.from_molecule(h2, 1.0)
    mm = MassModel.from_molecule(h2, 0.5)  # pole at ~0.385 A
    cfg = OracleConfig(r_min=0.01, r_max=10.0)
    with pytest.raises(DomainError, match="pole"):
        solve(p, mm, 0, cfg)


def test_threshold_values(h2):
    p = PotentialParams.from_molecule(h2, 1.0)
    mm = MassModel.from_molecule(h2, 0.0)
    exact_cfg = OracleConfig(r_min=1e-3, r_max=10.0, centrifugal_mode="exact")
    pek_cfg = OracleConfig(r_min=1e-3, r_max=10.0, centrifugal_mode="pekeris")
    assert continuum_threshold(p, mm, 10, exact_cfg) == pytest.approx(p.v3)
    assert continuum_threshold(p, mm, 10, pek_cfg) > p.v3


@pytest.mark.parametrize("delta", [0.0, 0.3])
def test_exact_mode_w_is_the_effective_potential(h2, delta):
    p = PotentialParams.from_molecule(h2, 1.0)
    mm = MassModel.from_molecule(h2, delta)
    w_fn, _ = build_w_and_b(p, mm, 5, OracleConfig(r_min=1e-3, r_max=10.0, centrifugal_mode="exact"))
    r = np.linspace(p.r_e - 0.5 / p.a, p.r_e + 30.0 / p.a, 400)
    assert np.array_equal(w_fn(r), effective_potential(p, mm, 5, r))


@pytest.mark.parametrize("name", ["H2", "CO"])
def test_pekeris_mode_at_delta_0_is_the_constant_mass_pekeris_problem(name):
    # the reduced problem's delta -> 0 limit: expanded centrifugal term plus
    # 2 m0 V / hbar^2, with the constant weight 2 m0 / hbar^2 bit for bit
    mol = builtin(name)
    p = PotentialParams.from_molecule(mol, 1.0)
    mm = MassModel.from_molecule(mol, 0.0)
    w_fn, b_fn = build_w_and_b(p, mm, 5, OracleConfig(r_min=1e-3, r_max=10.0))
    r = np.linspace(max(MIN_RADIUS, p.r_e - 2.0 / p.a), p.r_e + 30.0 / p.a, 400)
    inv_h22m = 1.0 / hbar2_over_2mu(mm.m0)
    want = pekeris_centrifugal(p, 5, r) + inv_h22m * morse_potential(p, r)
    np.testing.assert_allclose(w_fn(r), want, rtol=1e-12, atol=0.0)
    assert np.all(b_fn(r) == inv_h22m)


def test_compare_empty_closed_form(h2_ref):
    p = PotentialParams.from_molecule(h2_ref, 1.0)
    mm = MassModel.from_molecule(h2_ref, 0.0)
    cfg = OracleConfig(r_min=1e-3, r_max=12.0, grid_points=1500)
    spectrum = solve(p, mm, 0, cfg)
    report = compare([], spectrum)
    assert report.levels == []
    assert report.closed_count == 0
    assert report.count_mismatch


def test_report_serialization(h2_ref):
    p = PotentialParams.from_molecule(h2_ref, 1.0)
    mm = MassModel.from_molecule(h2_ref, 0.0)
    cfg = OracleConfig(r_min=1e-3, r_max=12.0, grid_points=1500)
    spectrum = solve(p, mm, 0, cfg)
    closed = _closed_levels(p, mm, 0, 3)
    report = compare(closed, spectrum)
    payload = json.loads(report.to_json())
    assert payload["closed_count"] == len(closed)
    assert len(payload["levels"]) == len(closed)
    text = report.to_text()
    assert "closed form" in text and "levels:" in text


def test_config_validation():
    with pytest.raises(DomainError):
        OracleConfig(r_min=-1.0, r_max=2.0)
    with pytest.raises(DomainError):
        OracleConfig(r_min=1.0, r_max=0.5)
    with pytest.raises(DomainError):
        OracleConfig(r_min=0.1, r_max=2.0, grid_points=MIN_GRID_POINTS - 1)
    with pytest.raises(DomainError):
        OracleConfig(r_min=0.1, r_max=2.0, centrifugal_mode="bogus")


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
], ids=["r_max-inf", "r_min-nan", "grid-huge-float", "grid-nan", "grid-float", "grid-bool",
        "grid-above-cap"])
def test_config_rejects_bad_input(bad):
    with pytest.raises(DomainError):
        OracleConfig(**{"r_min": 0.1, "r_max": 2.0, **bad})


def test_truncated_box_estimate_covers_deviation(h2_ref):
    # a box cut at 3 A squeezes the upper levels; the check solve's wider
    # wall must see it, so every deviation stays within twice its estimate
    p = PotentialParams.from_molecule(h2_ref, 1.0)
    mm = MassModel.from_molecule(h2_ref, 0.0)
    spectrum = solve(p, mm, 0, OracleConfig(r_min=1e-3, r_max=3.0, grid_points=2000))
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
    cfg = suggest_config(p, mm, 2)
    assert cfg.grid_points <= 700
    assert cfg.r_min > pole_wall(p, mm, POLE_WALL)


@pytest.mark.parametrize("name", ["H2", "CO"])
def test_allowed_pole_side_keeps_the_deepest_wall(name):
    # at delta = 0.55 W/B at the pole-side wall lies below the threshold, so
    # a top level near the threshold is classically allowed there
    mol = builtin(name)
    p = PotentialParams.from_molecule(mol, 1.0)
    mm = MassModel.from_molecule(mol, 0.55)
    probe = OracleConfig(r_min=MIN_RADIUS, r_max=1.0)
    w_fn, b_fn = build_w_and_b(p, mm, 0, probe)
    e_top = continuum_threshold(p, mm, 0, probe) - 0.5
    wall = np.array([pole_wall(p, mm, POLE_WALL)])
    assert w_fn(wall)[0] / b_fn(wall)[0] < e_top
    cfg = suggest_config(p, mm, 0, e_top=e_top)
    assert cfg.r_min == wall[0]


def test_thin_pole_side_keeps_the_deepest_wall():
    # CO delta = 0.5: the top level is forbidden at the w = 1e-5 wall, but the
    # forbidden sliver is too thin for it to decay POLE_SIDE_EFOLDS there
    mol = builtin("CO")
    p = PotentialParams.from_molecule(mol, 1.0)
    mm = MassModel.from_molecule(mol, 0.5)
    probe = OracleConfig(r_min=MIN_RADIUS, r_max=1.0)
    w_fn, b_fn = build_w_and_b(p, mm, 0, probe)
    wall = np.array([pole_wall(p, mm, POLE_WALL)])
    assert w_fn(wall)[0] / b_fn(wall)[0] > formula_ladder_top(p, mm, 0)
    assert suggest_config(p, mm, 0).r_min == wall[0]


@pytest.mark.parametrize("delta", [0.05, 0.3])
def test_shallow_inner_wall_estimate_covers_deviation(h2, delta):
    # an inner wall at 0.35 A squeezes the upper levels from the pole side
    # (virtual pole at delta = 0.05, real at 0.3); the check solve's deeper
    # inner wall must see it, so every deviation stays within twice its estimate
    p = PotentialParams.from_molecule(h2, 1.0)
    mm = MassModel.from_molecule(h2, delta)
    cfg = replace(suggest_config(p, mm, 0), r_min=0.35)
    report = compare((bound_ladder(p, mm, 0).energy + p.v3).tolist(), solve(p, mm, 0, cfg))
    assert not report.count_mismatch
    assert report.max_deviation > 1e-4  # the wall really bites
    for lv in report.levels:
        assert lv.deviation <= 2.0 * lv.oracle_error, lv
