import math
from dataclasses import fields

import pytest

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crosscheck.ladder import energy_from_epsilon, resolve_reported_ladder
from qmorse import builtin
from qmorse.errors import DomainError, ThresholdStateError
from qmorse.molecules import BUILTIN_NAMES
from qmorse.potential import MassModel, PotentialParams
from qmorse.reference import REFERENCE_MINUS_E, TABLE_MOLECULE, cell_matches
from qmorse.spectrum import (
    MAX_LADDER_LENGTH,
    QuantumState,
    bound_ladder,
    ladder_length,
    quantize,
    spectrum_grid,
    strengths,
)
from qmorse.units import hbar2_over_2mu


def _well(mol, q=1.0, delta=0.0):
    return PotentialParams.from_molecule(mol, q), MassModel.from_molecule(mol, delta)


def _cells(cells):
    """The (n, l) arrays of a reference block, one grid for all its cells."""
    return np.array(list(cells)).T


def test_reference_table_all_36_cells():
    for block, cells in REFERENCE_MINUS_E.items():
        mol = builtin(TABLE_MOLECULE[block])
        grid = spectrum_grid(*_well(mol), *_cells(cells)).raise_fault()
        for ((n, l), printed), energy in zip(cells.items(), grid.energy):
            assert cell_matches(-energy, printed), (block, n, l, -energy, printed)


def test_table_two_h2_row_misses_reference_cells():
    # the published H2 constants do NOT regenerate the reference energies;
    # the dedicated H2-ref parameter set exists precisely for that
    energy = float(spectrum_grid(*_well(builtin("H2")), 0, 0).raise_fault().energy)
    assert not cell_matches(-energy, "4.47601")
    assert -energy == pytest.approx(4.47601, abs=3e-4)


def test_s_wave_equals_constant_mass_at_l0():
    # independent restatement: E_n = -(1/4 kappa^2) [1 + 2n - eta kappa]^2 with
    # eta = V2/sqrt(V1), kappa = sqrt(2 mu)/(hbar a), from the dissociation limit
    # (the ladder's array evaluation, a, and one state's 0-d evaluation, b)
    for name in ("H2", "LiH", "CO", "HCl"):
        mol = builtin(name)
        p = PotentialParams.from_molecule(mol, 1.0)
        kappa = 1.0 / math.sqrt(hbar2_over_2mu(mol.mu_amu) * p.a**2)
        eta = p.v2 / math.sqrt(p.v1)
        mm = MassModel.from_molecule(mol)
        ladder = spectrum_grid(p, mm, np.arange(6), 0).energy
        for n in range(6):
            want = -(1.0 / (4.0 * kappa**2)) * (1.0 + 2.0 * n - eta * kappa) ** 2
            a = ladder[n]
            b = float(spectrum_grid(p, mm, n, 0).raise_fault().energy)
            assert a == pytest.approx(want, rel=1e-12)
            assert b == pytest.approx(want, rel=1e-12)


def test_h2_ladder_negative_and_increasing():
    mol = builtin("H2-ref")
    d_e = mol.d0_cm1 * 1.23985e-4
    p, mm = PotentialParams.from_molecule(mol, 1.0), MassModel.from_molecule(mol)
    ladder = spectrum_grid(p, mm, np.arange(len(bound_ladder(p, mm, 0)) + 1), 0)
    assert len(ladder) == 18  # n = 0..16 bound plus the edge entry at n = 17
    energies = ladder.energy.tolist()
    assert all(-d_e < e < 0 for e in energies)
    assert all(b > a for a, b in zip(energies, energies[1:]))


def test_n_max_counts():
    counts = {"H2-ref": 17, "H2": 17, "CO": 83, "LiH": 29, "HCl": 25}
    assert {name: ladder_length(*_well(builtin(name)), 0) for name in counts} == counts


def _edge(mol):
    """The ladder entry at index n_max, nearest the continuum."""
    p, mm = _well(mol)
    return spectrum_grid(p, mm, ladder_length(p, mm, 0), 0).raise_fault()


def test_near_threshold_energies():
    assert float(_edge(builtin("H2-ref")).energy) == pytest.approx(-1.231e-4, rel=0.01)
    assert float(_edge(builtin("CO")).energy) == pytest.approx(-5.533e-7, rel=0.01)


def test_lih_hcl_ladder_assignment_resolved_by_computation():
    resolved = resolve_reported_ladder()
    assert {resolved["LiH"][0], resolved["HCl"][0]} == {24, 29}
    assert resolved["LiH"][0] == 29
    assert resolved["LiH"][1] == pytest.approx(-1.270e-3, rel=0.01)
    assert resolved["HCl"][0] == 24
    assert resolved["HCl"][1] == pytest.approx(-1.303e-3, rel=0.01)


def test_n_max_scaling_with_mass():
    # the pre-floor bound scales with sqrt(mu): doubling mu multiplies it by sqrt(2)
    mol = builtin("H2")
    import dataclasses

    heavy = dataclasses.replace(mol, mu_amu=2.0 * mol.mu_amu)
    light_count, heavy_count = ladder_length(*_well(mol), 0), ladder_length(*_well(heavy), 0)
    assert heavy_count in (int(math.sqrt(2) * (light_count + 1)), int(math.sqrt(2) * light_count),
                           int(math.sqrt(2) * light_count) + 1)


def test_n_max_zero_for_negative_q():
    assert ladder_length(*_well(builtin("H2"), q=-0.5), 0) == 0


def test_pdm_identity_routes_agree(rng):
    # explicit squared-bracket route vs eps-inversion route, relative 1e-12
    worst = 0.0
    accepted = 0
    while accepted < 1000:
        d_e = rng.uniform(0.5, 12.0)
        a = rng.uniform(0.8, 3.0)
        r_e = rng.uniform(0.5, 2.5)
        q = rng.uniform(0.3, 2.0)
        delta = rng.uniform(0.01, 0.9)
        m0 = rng.uniform(0.3, 10.0)
        l = int(rng.integers(0, 11))
        n = int(rng.integers(0, 6))
        p = PotentialParams(d_e=d_e, a=a, r_e=r_e, q=q)
        mm = MassModel(m0=m0, delta=delta)
        try:
            res = spectrum_grid(p, mm, n, l).raise_fault()
        except Exception:
            continue
        if not res.bound:
            continue
        energy = float(res.energy) + p.v3  # the literal well value, as energy_from_epsilon's
        other = energy_from_epsilon(p, mm, l, float(res.eps))
        worst = max(worst, abs(energy - other) / max(abs(energy), 1e-30))
        accepted += 1
    assert worst < 1e-12


def test_delta_continuity_with_constant_mass():
    # delta = 1e-6 varies from the constant-mass limit by far less than 1e-4 eV
    for block, cells in REFERENCE_MINUS_E.items():
        mol = builtin(TABLE_MOLECULE[block])
        n, l = _cells(cells)
        e_pdm = spectrum_grid(*_well(mol, delta=1e-6), n, l).raise_fault().energy
        e_cm = spectrum_grid(*_well(mol), n, l).raise_fault().energy
        assert (abs(e_pdm - e_cm) < 1e-4).all()


def test_tiny_delta_routed_to_constant_mass():
    mol = builtin("H2")
    grid = spectrum_grid(*_well(mol, delta=1e-12), 0, 0).raise_fault()
    assert grid.delta == 0.0
    assert float(grid.xi) == math.inf


def test_pdm_h2_delta_01_epsilon_positive_and_larger():
    # direct evaluation: the varying-mass eps at delta = 0.1 comes out slightly
    # above the delta -> 0 value for the H2 ground state (deeper effective well)
    mol = builtin("H2")
    p = PotentialParams.from_molecule(mol, 1.0)
    eps_pdm = float(quantize(0, *strengths(p, MassModel(m0=mol.mu_amu, delta=0.1), 0)[:2], 0.1)
                    .raise_fault().eps)
    eps_cm = float(quantize(0, *strengths(p, MassModel(m0=mol.mu_amu, delta=0.0), 0)[:2], 0.0)
                   .raise_fault().eps)
    assert eps_pdm > 0.0
    assert eps_pdm > eps_cm
    assert eps_pdm == pytest.approx(eps_cm, rel=5e-3)


def test_epsilon_pdm_limit_matches_constant_mass_form():
    beta1, beta2 = 303.0, 606.0
    limit = beta2 / (2.0 * math.sqrt(beta1)) - 0.5
    assert float(quantize(0, beta1, beta2, 1e-9).eps) == pytest.approx(limit, rel=1e-6)


def test_epsilon_pdm_threshold_error():
    # denominator sqrt(beta1) - (n + 1/2) delta == 0
    beta1 = 4.0
    delta = 0.8
    n = 2  # (2.5) * 0.8 = 2.0 = sqrt(4)
    with pytest.raises(ThresholdStateError):
        quantize(n, beta1, 10.0, delta).raise_fault()


@pytest.mark.parametrize("delta", [0.0, 0.3])
@pytest.mark.parametrize("n", [-1, 0.5, math.nan, math.inf])
def test_spectrum_rejects_an_n_that_is_no_level(h2, delta, n):
    # the bracket is finite at n = -1 and n = 0.5 (at -1 it sits below the
    # n = 0 level), so only this check keeps them out; the error names the
    # first offending n of the grid
    p, mm = _well(h2, 1.0, delta)
    with pytest.raises(DomainError, match=f"got {float(n)!r}$"):
        spectrum_grid(p, mm, [0, 1, n, -2], 0)


def test_zero_numerator_gives_threshold_epsilon():
    beta1, delta, n = 9.0, 0.2, 1
    beta2 = 2 * (n + 0.5) * math.sqrt(beta1) - n * (n + 1) * delta
    eps = float(quantize(n, beta1, beta2, delta).raise_fault().eps)
    assert eps == pytest.approx(0.0, abs=1e-14)


def test_monotone_in_n_and_l_for_bound_states():
    for name in ("H2-ref", "LiH", "CO", "HCl"):
        mol = builtin(name)
        # rows n in (0, 5, 7), columns l in (0, 5, 10)
        energies = spectrum_grid(*_well(mol), np.array([0, 5, 7])[:, None],
                                 np.array([0, 5, 10])).raise_fault().energy
        assert (np.diff(energies, axis=0) > 0).all() and (energies < 0).all()
        assert (np.diff(energies, axis=1) > 0).all()


def test_pdm_co_monotone_in_n_while_bound():
    grid = spectrum_grid(*_well(builtin("CO"), delta=0.2), np.arange(30), 0).raise_fault()
    unbound = np.flatnonzero(~grid.bound)
    energies = grid.energy[: unbound[0] if unbound.size else 30]
    assert energies.size > 0
    assert (np.diff(energies) > 0).all()


def test_unbound_s_wave_flagged_but_reported():
    mol = builtin("H2")
    grid = _edge(mol)
    assert not grid.bound
    assert math.isfinite(grid.energy)


def test_energy_sign_convention():
    grid = spectrum_grid(*_well(builtin("CO")), 0, 0).raise_fault()
    assert grid.energy < 0 and grid.bound


def test_beta_static_beta2_is_twice_beta1():
    mol = builtin("H2")
    p = PotentialParams.from_molecule(mol, 1.0)
    beta1, beta2, _ = map(float, strengths(p, MassModel(m0=mol.mu_amu, delta=0.0), 0))
    # beta2 = 2 beta1 exactly at q = 1, l = 0 for the constant-mass case
    assert beta2 == pytest.approx(2.0 * beta1, rel=1e-14)


@pytest.mark.parametrize("delta", [0.0, 0.5])
def test_quantize_fields_take_the_broadcast_shape(delta):
    # beta2 alone spans the last axis: every field still has the full shape
    qz = quantize(np.arange(3)[:, None, None], [[3.0], [1.5]], [10.0, 9.0, 8.0, 7.0], delta)
    arrays = [getattr(qz, f.name) for f in fields(qz) if f.name not in ("delta", "energy")]
    assert [np.shape(a) for a in arrays] == [(3, 2, 4)] * len(arrays)
    assert np.shape(qz[2, 1].den) == (4,)


def test_grid_raises_first_threshold_state_in_row_order():
    # sqrt(beta1) = (n + 1/2) delta exactly: column 0 at n = 3, column 1 at n = 2;
    # row order (n outer, beta1 inner) reaches (n=2, column 1) first
    qz = quantize(np.arange(4)[:, None], [3.0625, 1.5625], 10.0, 0.5)
    assert qz.fault[3, 0] and qz.fault[2, 1]
    assert not qz.bound[3, 0] and not qz.bound[2, 1]
    with pytest.raises(ThresholdStateError, match="n=2"):
        qz.raise_fault()


@pytest.mark.parametrize("name", BUILTIN_NAMES)
@settings(max_examples=30, deadline=None)
@given(log_q=st.floats(-3.0, 3.0))
@example(log_q=0.0)
def test_bound_ladder_length_is_n_max_at_l0(name, log_q):
    # also the premise of nmax --full, which sizes its ladder by n_max
    mol, q = builtin(name), 10.0**log_q
    p = PotentialParams.from_molecule(mol, q)
    ladder = bound_ladder(p, MassModel.from_molecule(mol, 0.0), 0)
    assert len(ladder) == ladder_length(*_well(mol, q), 0)
    assert ladder.bound.all()


def test_bound_ladder_matches_prefix_loop():
    # the criterion-4c configurations: the ladder is the prefix the per-state
    # loop finds, state by state
    for name in ("H2", "LiH"):
        mol = builtin(name)
        p = PotentialParams.from_molecule(mol, 1.0)
        for delta in (0.1, 0.3, 0.5):
            mm = MassModel.from_molecule(mol, delta)
            for l in (0, 5):
                closed = []
                n = 0
                while True:
                    res = spectrum_grid(p, mm, n, l).raise_fault()
                    if not res.bound:
                        break
                    closed.append((float(res.energy) + p.v3, float(res.eps), float(res.xi)))
                    n += 1
                ladder = bound_ladder(p, mm, l)
                # the ladder's energies are below the limit; the loop's are literal
                assert list(zip(ladder.energy + p.v3, ladder.eps, ladder.xi)) == closed
        # near the crossover the length comes from the numerator's root, not
        # from the den > 0 limit sqrt(beta1)/delta ~ 1e10
        tiny = bound_ladder(p, MassModel.from_molecule(mol, 1e-9), 0)
        assert len(tiny) == ladder_length(*_well(mol), 0)
        assert np.isfinite(tiny.energy).all() and np.isfinite(tiny.xi).all()


def test_one_state_equals_its_grid_cell():
    # a 0-d eps squared by numpy's scalar power gave ...639e-05 at n = 45,
    # while the ladder's (and nmax's) array cell is ...637e-05
    mol, q = builtin("H2-ref"), 2.617495926584324
    p, mm = PotentialParams.from_molecule(mol, q), MassModel.from_molecule(mol)
    count = ladder_length(p, mm, 0)
    grid = spectrum_grid(p, mm, np.arange(count + 1), 0)
    for n in range(count + 1):
        assert float(spectrum_grid(p, mm, n, 0).energy) == grid.energy[n], n
    assert grid.energy[45] == -8.573024569181637e-05


def test_one_pdm_state_xi_equals_its_grid_cell():
    # xi_sq squared a 0-d eps by numpy's scalar power, which gave
    # 263.54774369385257 at n = 42, while the ladder's array cell is ...528
    mol, q, delta, l = builtin("CO"), 4.2, 0.3, 5
    p, mm = PotentialParams.from_molecule(mol, q), MassModel.from_molecule(mol, delta)
    count = ladder_length(p, mm, l)
    grid = spectrum_grid(p, mm, np.arange(count), l)
    for n in range(count):
        assert float(spectrum_grid(p, mm, n, l).xi) == grid.xi[n], n
    assert grid.xi[42] == 263.5477436938528


@pytest.mark.parametrize("q", [3e14, 1e16, 1e300, 1e308])
def test_ladder_length_refuses_counts_a_float_cannot_index(q):
    # at q = 3e14 the H2 count (5.2e15) is past 2**52, where n + 1/2 rounds and
    # the last counted level came out unbound; at 1e16 (1.7e17) it is past
    # 2**53, where n_max - 1 and n_max are one float; at 1e308 the strengths
    # overflow to inf
    mol = builtin("H2")
    p, mm = PotentialParams.from_molecule(mol, q), MassModel.from_molecule(mol)
    with pytest.raises(DomainError, match="float"):
        ladder_length(p, mm, 0)


def test_ladder_length_below_the_cap_keeps_its_edge():
    # just below MAX_LADDER_LENGTH the last counted level is still bound and
    # the edge row is not: n + 1/2 is exact for every row
    mol = builtin("H2")
    per_q = ladder_length(*_well(mol, 1e12), 0) / 1e12
    for q in (2.5e14, 0.999 * MAX_LADDER_LENGTH / per_q):
        p, mm = _well(mol, q)
        count = ladder_length(p, mm, 0)
        assert 2**51 < count <= MAX_LADDER_LENGTH
        grid = spectrum_grid(p, mm, np.array([count - 1, count], float), 0)
        assert grid.bound.tolist() == [True, False], q


@pytest.mark.parametrize("field", ["n", "l"])
@pytest.mark.parametrize("value", [math.nan, math.inf, True, -1, 1.5],
                         ids=["nan", "inf", "bool", "negative", "fraction"])
def test_quantum_state_rejects_bad_numbers(field, value):
    with pytest.raises(DomainError):
        QuantumState(**{"n": 0, "l": 0, field: value})
