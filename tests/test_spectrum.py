import math

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
    QuantumState,
    bound_ladder,
    energy_constant_mass,
    energy_pdm,
    n_max,
    quantize,
    spectrum_grid,
    strengths,
)
from qmorse.units import hbar2_over_2mu


def test_reference_table_all_36_cells():
    for block, cells in REFERENCE_MINUS_E.items():
        mol = builtin(TABLE_MOLECULE[block])
        for (n, l), printed in cells.items():
            res = energy_constant_mass(mol, 1.0, QuantumState(n, l))
            assert cell_matches(-res.energy, printed), (block, n, l, -res.energy, printed)


def test_table_two_h2_row_misses_reference_cells():
    # the published H2 constants do NOT regenerate the reference energies;
    # the dedicated H2-ref parameter set exists precisely for that
    res = energy_constant_mass(builtin("H2"), 1.0, QuantumState(0, 0))
    assert not cell_matches(-res.energy, "4.47601")
    assert -res.energy == pytest.approx(4.47601, abs=3e-4)


def test_s_wave_equals_constant_mass_at_l0():
    # independent restatement: E_n = -(1/4 kappa^2) [1 + 2n - eta kappa]^2 with
    # eta = V2/sqrt(V1), kappa = sqrt(2 mu)/(hbar a), from the dissociation limit
    # (the ladder's array evaluation, a, and one state's, b)
    for name in ("H2", "LiH", "CO", "HCl"):
        mol = builtin(name)
        p = PotentialParams.from_molecule(mol, 1.0)
        kappa = 1.0 / math.sqrt(hbar2_over_2mu(mol.mu_amu) * p.a**2)
        eta = p.v2 / math.sqrt(p.v1)
        ladder = spectrum_grid(p, MassModel.from_molecule(mol), np.arange(6), 0).energy
        for n in range(6):
            want = -(1.0 / (4.0 * kappa**2)) * (1.0 + 2.0 * n - eta * kappa) ** 2
            a = ladder[n]
            b = energy_constant_mass(mol, 1.0, QuantumState(n, 0)).energy
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
    assert n_max(builtin("H2-ref")) == 17
    assert n_max(builtin("H2")) == 17
    assert n_max(builtin("CO")) == 83
    assert n_max(builtin("LiH")) == 29
    assert n_max(builtin("HCl")) == 25


def _edge(mol):
    """The ladder entry at index n_max, nearest the continuum."""
    return energy_constant_mass(mol, 1.0, QuantumState(n_max(mol), 0))


def test_near_threshold_energies():
    assert _edge(builtin("H2-ref")).energy == pytest.approx(-1.231e-4, rel=0.01)
    assert _edge(builtin("CO")).energy == pytest.approx(-5.533e-7, rel=0.01)


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
    light_count, heavy_count = n_max(mol), n_max(heavy)
    assert heavy_count in (int(math.sqrt(2) * (light_count + 1)), int(math.sqrt(2) * light_count),
                           int(math.sqrt(2) * light_count) + 1)


def test_n_max_zero_for_negative_q():
    assert n_max(builtin("H2"), q=-0.5) == 0


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
        for (n, l) in cells:
            state = QuantumState(n, l)
            e_pdm = energy_pdm(mol, 1.0, 1e-6, state).energy
            e_cm = energy_constant_mass(mol, 1.0, state).energy
            assert abs(e_pdm - e_cm) < 1e-4


def test_tiny_delta_routed_to_constant_mass():
    mol = builtin("H2")
    res = energy_pdm(mol, 1.0, 1e-12, QuantumState(0, 0))
    assert res.variant == "constant_mass"


def test_pdm_h2_delta_01_epsilon_positive_and_larger():
    # direct evaluation: the varying-mass eps at delta = 0.1 comes out slightly
    # above the delta -> 0 value for the H2 ground state (deeper effective well)
    mol = builtin("H2")
    p = PotentialParams.from_molecule(mol, 1.0)
    eps_pdm = float(quantize(0, *strengths(p, MassModel(m0=mol.mu_amu, delta=0.1), 0), 0.1)
                    .raise_fault().eps)
    eps_cm = float(quantize(0, *strengths(p, MassModel(m0=mol.mu_amu, delta=0.0), 0), 0.0)
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


def test_zero_numerator_gives_threshold_epsilon():
    beta1, delta, n = 9.0, 0.2, 1
    beta2 = 2 * (n + 0.5) * math.sqrt(beta1) - n * (n + 1) * delta
    eps = float(quantize(n, beta1, beta2, delta).raise_fault().eps)
    assert eps == pytest.approx(0.0, abs=1e-14)


def test_monotone_in_n_and_l_for_bound_states():
    for name in ("H2-ref", "LiH", "CO", "HCl"):
        mol = builtin(name)
        for l in (0, 5, 10):
            energies = [energy_constant_mass(mol, 1.0, QuantumState(n, l)).energy
                        for n in (0, 5, 7)]
            assert energies[0] < energies[1] < energies[2] < 0
        for n in (0, 5, 7):
            energies = [energy_constant_mass(mol, 1.0, QuantumState(n, l)).energy
                        for l in (0, 5, 10)]
            assert energies[0] < energies[1] < energies[2]


def test_pdm_co_monotone_in_n_while_bound():
    mol = builtin("CO")
    previous = None
    for n in range(0, 30):
        res = energy_pdm(mol, 1.0, 0.2, QuantumState(n, 0))
        if not res.bound:
            break
        if previous is not None:
            assert res.energy > previous
        previous = res.energy
    assert previous is not None


def test_unbound_s_wave_flagged_but_reported():
    mol = builtin("H2")
    res = _edge(mol)
    assert not res.bound
    assert math.isfinite(res.energy)


def test_energy_sign_convention():
    res = energy_constant_mass(builtin("CO"), 1.0, QuantumState(0, 0))
    assert res.energy < 0 and res.bound


def test_beta_static_beta2_is_twice_beta1():
    mol = builtin("H2")
    p = PotentialParams.from_molecule(mol, 1.0)
    beta1, beta2 = map(float, strengths(p, MassModel(m0=mol.mu_amu, delta=0.0), 0))
    # beta2 = 2 beta1 exactly at q = 1, l = 0 for the constant-mass case
    assert beta2 == pytest.approx(2.0 * beta1, rel=1e-14)


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
    assert len(ladder) == n_max(mol, q)
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
        assert len(tiny) == n_max(mol)
        assert np.isfinite(tiny.energy).all() and np.isfinite(tiny.xi).all()


@pytest.mark.parametrize("field", ["n", "l"])
@pytest.mark.parametrize("value", [math.nan, math.inf, True, -1, 1.5],
                         ids=["nan", "inf", "bool", "negative", "fraction"])
def test_quantum_state_rejects_bad_numbers(field, value):
    with pytest.raises(DomainError):
        QuantumState(**{"n": 0, "l": 0, field: value})
