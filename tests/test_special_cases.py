import math

import pytest

from qmorse.errors import DomainError
from qmorse.molecules import MoleculeRecord
from qmorse.special_cases import (
    GeneralizedVibrationalCase,
    NonPtCase,
    PtType1Case,
    PtType2Case,
    energy_scale,
    gv_energy,
    gv_lambda,
    non_pt_energy,
    pt_type1_energy,
    pt_type2_energy,
    special_case_spectrum,
    is_non_real,
)
from qmorse.spectrum import QuantumState, energy_constant_mass
from qmorse.units import UNITS


def _equivalent_molecule(D: float, alpha: float, mu: float, r_e: float) -> MoleculeRecord:
    return MoleculeRecord(
        name="synthetic",
        d0_cm1=D / UNITS.wavenumber_to_eV,
        a_invA=alpha / r_e,
        r0_A=r_e,
        mu_amu=mu,
    )


def test_gv_equals_s_wave_under_identification(rng):
    # the vibrational special case is the s-wave formula with V1=D, V2=2qD, V3=0
    for _ in range(20):
        D = rng.uniform(0.5, 12.0)
        alpha = rng.uniform(0.8, 4.0)
        q = rng.uniform(0.3, 2.0)
        mu = rng.uniform(0.3, 10.0)
        r_e = rng.uniform(0.5, 2.5)
        n = int(rng.integers(0, 4))
        case = GeneralizedVibrationalCase(D=D, alpha=alpha, q=q, mu=mu, r_e=r_e)
        gv = gv_energy(case, n)
        sw = energy_constant_mass(_equivalent_molecule(D, alpha, mu, r_e), q, QuantumState(n, 0))
        assert gv.energy == pytest.approx(sw.energy, rel=1e-12)


def test_gv_final_state_condition_gives_zero_energy():
    # q = 1/(2 lambda) puts the n = 0 state exactly at zero energy
    case = GeneralizedVibrationalCase(D=4.7, alpha=1.5, q=1.0, mu=0.6, r_e=0.9)
    lam = gv_lambda(case)
    tuned = GeneralizedVibrationalCase(D=4.7, alpha=1.5, q=1.0 / (2.0 * lam), mu=0.6, r_e=0.9)
    res = gv_energy(tuned, 0)
    assert res.energy == pytest.approx(0.0, abs=1e-25)
    assert not res.bound  # eps = 0 counts as unbound (tie rule)


def test_gv_unbound_flag_beyond_ladder():
    case = GeneralizedVibrationalCase(D=2.0, alpha=1.2, q=0.8, mu=0.5, r_e=0.8)
    lam_q = gv_lambda(case) * case.q
    n_top = int(math.floor(lam_q - 0.5))
    assert gv_energy(case, n_top).bound
    assert not gv_energy(case, n_top + 1).bound


def test_non_pt_energy_real_and_matches_closed_form():
    case = NonPtCase(D=2.0, d_hat=1.5, mu=0.9, r_e=1.2)
    e0 = energy_scale(case.mu, case.r_e)
    kappa1 = case.r_e * math.sqrt(2.0 * case.mu * UNITS.amu_to_eV_per_c2 * case.D) / UNITS.hbar_c
    for n in range(3):
        res = non_pt_energy(case, n)
        expected = -e0 * (0.5 * case.d_hat * kappa1 - n - 0.5) ** 2
        assert isinstance(res.energy, float)
        assert res.energy == pytest.approx(expected, rel=1e-14)


def test_pt_type1_energies_are_non_real():
    case = PtType1Case(D=2.0, d_hat=1.5, mu=0.9, r_e=1.2)
    for n in range(4):
        res = pt_type1_energy(case, n)
        assert isinstance(res.energy, complex)
        assert is_non_real(res)
        assert not res.bound
        # real and imaginary parts follow E0 [d_hat kappa2 / 2 - n - 1/2]^2
        kappa = case.r_e * math.sqrt(2.0 * case.mu * UNITS.amu_to_eV_per_c2 * case.D) / UNITS.hbar_c
        e0 = energy_scale(case.mu, case.r_e)
        a_part = 0.5 * case.d_hat * kappa
        b_part = n + 0.5
        expected = e0 * complex(b_part**2 - a_part**2, 2.0 * a_part * b_part)
        assert res.energy == pytest.approx(expected, rel=1e-12)


def test_pt_type2_energies_real_and_match():
    case = PtType2Case(D=3.0, omega=1.4, alpha=1.1, mu=0.8, r_e=1.0)
    e0 = energy_scale(case.mu, case.r_e)
    kappa3 = case.r_e * math.sqrt(2.0 * case.mu * UNITS.amu_to_eV_per_c2 * case.D) / UNITS.hbar_c
    for n in range(3):
        res = pt_type2_energy(case, n)
        expected = e0 * (0.5 * math.sqrt(case.D) / case.omega * kappa3 - n - 0.5) ** 2
        assert isinstance(res.energy, float)
        assert res.energy == pytest.approx(expected, rel=1e-14)
        assert not is_non_real(res)


def test_dispatch_and_unknown_case():
    case = NonPtCase(D=2.0, d_hat=1.5, mu=0.9, r_e=1.2)
    res = special_case_spectrum("non_pt", case, 0)
    assert res.variant == "special_case:non_pt"
    with pytest.raises(DomainError):
        special_case_spectrum("bogus", case, 0)


def test_case_validation():
    with pytest.raises(DomainError):
        GeneralizedVibrationalCase(D=-1.0, alpha=1.0, q=1.0, mu=1.0, r_e=1.0)
    with pytest.raises(DomainError):
        PtType2Case(D=1.0, omega=0.0, alpha=1.0, mu=1.0, r_e=1.0)


VALID_CASES = {
    GeneralizedVibrationalCase: dict(D=2.0, alpha=1.0, q=1.0, mu=0.9, r_e=1.2),
    NonPtCase: dict(D=2.0, d_hat=1.5, mu=0.9, r_e=1.2),
    PtType1Case: dict(D=2.0, d_hat=1.5, mu=0.9, r_e=1.2),
    PtType2Case: dict(D=2.0, omega=1.0, alpha=1.0, mu=0.9, r_e=1.2),
}


@pytest.mark.parametrize("case_type, field", [
    (case_type, field) for case_type, values in VALID_CASES.items() for field in values
])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_case_rejects_non_finite(case_type, field, value):
    with pytest.raises(DomainError, match=field):
        case_type(**{**VALID_CASES[case_type], field: value})


def test_overflowing_energy_raises():
    # finite inputs whose energy overflows a float: 2 mu D in kappa is 1.9e309
    case = NonPtCase(D=2.0, d_hat=1.5, mu=1e300, r_e=1.2)
    with pytest.raises(OverflowError, match="non_pt level n=0"):
        special_case_spectrum("non_pt", case, 0)
