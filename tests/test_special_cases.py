import math

import numpy as np
import pytest

from qmorse.errors import DomainError
from qmorse.molecules import MoleculeRecord
from qmorse.potential import MassModel, PotentialParams
from qmorse.special_cases import (
    GeneralizedVibrationalCase,
    NonPtCase,
    PtType1Case,
    PtType2Case,
    gv_lambda,
    special_case_ladder,
)
from qmorse.spectrum import EPS_TIE_TOL, spectrum_grid
from qmorse.units import UNITS, hbar2_over_2mu


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
        case = GeneralizedVibrationalCase(D=D, alpha=alpha, q=q, mu=mu, r_e=r_e)
        gv, _ = special_case_ladder(case, np.arange(4))
        mol = _equivalent_molecule(D, alpha, mu, r_e)
        sw = spectrum_grid(PotentialParams.from_molecule(mol, q), MassModel.from_molecule(mol),
                           np.arange(4), 0).energy
        assert gv == pytest.approx(sw, rel=1e-12)


def test_gv_final_state_condition_gives_zero_energy():
    # q = 1/(2 lambda) puts the n = 0 state exactly at zero energy
    case = GeneralizedVibrationalCase(D=4.7, alpha=1.5, q=1.0, mu=0.6, r_e=0.9)
    lam = gv_lambda(case)
    tuned = GeneralizedVibrationalCase(D=4.7, alpha=1.5, q=1.0 / (2.0 * lam), mu=0.6, r_e=0.9)
    energy, bound = special_case_ladder(tuned, np.arange(1))
    assert energy[0] == pytest.approx(0.0, abs=1e-25)
    assert not bound[0]  # eps = 0 counts as unbound (tie rule)


def test_gv_unbound_flag_beyond_ladder():
    case = GeneralizedVibrationalCase(D=2.0, alpha=1.2, q=0.8, mu=0.5, r_e=0.8)
    lam_q = gv_lambda(case) * case.q
    n_top = int(math.floor(lam_q - 0.5))
    _, bound = special_case_ladder(case, np.arange(n_top + 2))
    assert bound.tolist() == [True] * (n_top + 1) + [False]


def test_non_pt_energy_real_and_matches_closed_form():
    case = NonPtCase(D=2.0, d_hat=1.5, mu=0.9, r_e=1.2)
    e0 = hbar2_over_2mu(case.mu) / case.r_e**2  # E0
    kappa1 = case.r_e * math.sqrt(2.0 * case.mu * UNITS.amu_to_eV_per_c2 * case.D) / UNITS.hbar_c
    n = np.arange(3)
    energy, _ = special_case_ladder(case, n)
    expected = -e0 * (0.5 * case.d_hat * kappa1 - n - 0.5) ** 2
    assert energy.dtype == np.float64
    assert energy == pytest.approx(expected, rel=1e-14)


def test_pt_type1_energies_are_non_real():
    case = PtType1Case(D=2.0, d_hat=1.5, mu=0.9, r_e=1.2)
    n = np.arange(4)
    energy, bound = special_case_ladder(case, n)
    assert energy.dtype == np.complex128
    assert np.all(energy.imag != 0)
    assert not bound.any()
    # real and imaginary parts follow E0 [d_hat kappa2 / 2 - n - 1/2]^2
    kappa = case.r_e * math.sqrt(2.0 * case.mu * UNITS.amu_to_eV_per_c2 * case.D) / UNITS.hbar_c
    e0 = hbar2_over_2mu(case.mu) / case.r_e**2  # E0
    a_part = 0.5 * case.d_hat * kappa
    b_part = n + 0.5
    expected = e0 * (b_part**2 - a_part**2 + 2j * a_part * b_part)
    assert energy == pytest.approx(expected, rel=1e-12)


def test_pt_type2_energies_real_and_match():
    case = PtType2Case(D=3.0, omega=1.4, alpha=1.1, mu=0.8, r_e=1.0)
    e0 = hbar2_over_2mu(case.mu) / case.r_e**2  # E0
    kappa3 = case.r_e * math.sqrt(2.0 * case.mu * UNITS.amu_to_eV_per_c2 * case.D) / UNITS.hbar_c
    n = np.arange(3)
    energy, _ = special_case_ladder(case, n)
    expected = e0 * (0.5 * math.sqrt(case.D) / case.omega * kappa3 - n - 0.5) ** 2
    assert energy.dtype == np.float64
    assert energy == pytest.approx(expected, rel=1e-14)


DISPATCH_CASES = {
    "generalized_vibrational": GeneralizedVibrationalCase(D=2.0, alpha=1.2, q=0.8, mu=0.5, r_e=0.8),
    "non_pt": NonPtCase(D=2.0, d_hat=1.5, mu=0.9, r_e=1.2),
    "pt_type1": PtType1Case(D=2.0, d_hat=1.5, mu=0.9, r_e=1.2),
    "pt_type2": PtType2Case(D=3.0, omega=1.4, alpha=1.1, mu=0.8, r_e=1.0),
}


@pytest.mark.parametrize("case_id", sorted(DISPATCH_CASES))
def test_dispatch_and_unknown_case(case_id):
    case = DISPATCH_CASES[case_id]
    n = np.arange(8)
    energy, bound = special_case_ladder(case, n)
    assert energy.shape == bound.shape == (8,)
    assert np.iscomplexobj(energy) == (case_id == "pt_type1")
    # bound iff eps > EPS_TIE_TOL; the complex pt_type1 levels never are
    c, _, _ = case.ladder()
    eps = c - n - 0.5
    assert bound.tolist() == (np.isrealobj(eps) & (eps.real > EPS_TIE_TOL)).tolist()
    # a case id in place of its case is refused, not looked up
    with pytest.raises(DomainError, match="str"):
        special_case_ladder(case_id, n)


@pytest.mark.parametrize("n", [-1, 1.5, [0, -1], np.array([0.0, 1.5])])
def test_ladder_rejects_a_non_integer_or_negative_n(n):
    with pytest.raises(DomainError, match="n must be a non-negative integer"):
        special_case_ladder(DISPATCH_CASES["non_pt"], n)


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


@pytest.mark.parametrize("case_type, field, value", [
    (case_type, field, value) for case_type, values in VALID_CASES.items()
    for field in values if field in ("D", "alpha", "mu", "r_e") for value in (0.0, -1.0)
] + [(PtType2Case, "omega", 0.0)])
def test_case_rejects_out_of_domain(case_type, field, value):
    with pytest.raises(DomainError, match=f"^{field} must be"):
        case_type(**{**VALID_CASES[case_type], field: value})


@pytest.mark.parametrize("case_type, field", [
    (GeneralizedVibrationalCase, "q"), (NonPtCase, "d_hat"), (PtType1Case, "d_hat"),
    (PtType2Case, "omega"),
])
def test_case_takes_a_negative_deformation_or_coupling(case_type, field):
    case_type(**{**VALID_CASES[case_type], field: -1.5})


def _assert_ladder_overflows(case, level):
    with pytest.raises(OverflowError, match=f"^{level} overflows: energy "):
        special_case_ladder(case, np.arange(3))
    with pytest.raises(OverflowError, match=level):
        special_case_ladder(case, 0)


def test_overflowing_energy_raises():
    # finite inputs whose energy overflows a float: 2 mu D in kappa is 1.9e309
    _assert_ladder_overflows(NonPtCase(D=2.0, d_hat=1.5, mu=1e300, r_e=1.2), "non_pt level n=0")


@pytest.mark.parametrize("case, level", [
    # k = alpha sqrt(hbar^2 / 2 mu) / r_e overflows: sqrt(hbar^2 / 2 mu) is
    # 4.6e148 at mu = 1e-300, and alpha / r_e is 1e310
    (PtType1Case(D=2.0, d_hat=1.5, mu=1e-300, r_e=1e-200), "pt_type1 level n=0"),
    (GeneralizedVibrationalCase(D=2.0, alpha=1e300, q=1.0, mu=0.9, r_e=1e-10),
     "generalized_vibrational level n=0"),
])
def test_overflowing_scale_raises(case, level):
    # finite inputs whose c or scale overflows a float
    _assert_ladder_overflows(case, level)


@pytest.mark.parametrize("case, ground", [
    # alpha^2 E0 = 2e-403 underflows, though E_0 = -(sqrt(D) q - k / 2)^2 is ordinary
    (GeneralizedVibrationalCase(D=1.0, alpha=1e-200, q=1.0, mu=0.9, r_e=1.0), -1.0),
    (GeneralizedVibrationalCase(D=2.0, alpha=1e-200, q=1.0, mu=0.9, r_e=1.2), -2.0),
    # r_e^2 = 1e400 overflows, though E0 kappa^2 = D keeps E_0 = -D d_hat^2 / 4
    (NonPtCase(D=1.0, d_hat=1.5, mu=0.9, r_e=1e200), -0.5625),
])
def test_extreme_scale_keeps_an_ordinary_energy(case, ground):
    energy, bound = special_case_ladder(case, np.arange(3))
    assert energy == pytest.approx([ground] * 3, rel=1e-12)
    assert bound.all()
