import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmorse.errors import DomainError, MassPoleError
from qmorse.potential import (
    MassModel,
    PotentialParams,
    _mass_derivatives,
    effective_potential,
    mass,
    mass_pole_radius,
    morse_potential,
)
from qmorse.units import UNITS, hbar2_over_2mu

H2ISH = dict(d_e=4.7446, a=1.9425, r_e=0.7416)


def test_param_invariants():
    p = PotentialParams(q=0.7, **H2ISH)
    assert p.v1 == p.d_e
    assert p.v2 == 2.0 * 0.7 * p.d_e
    assert p.v3 == pytest.approx(0.49 * p.d_e, rel=1e-15)
    assert p.alpha == pytest.approx(1.9425 * 0.7416, rel=1e-15)


@pytest.mark.parametrize("q", [0.0, -1.5, -2.0])
def test_q_range_rejected(q):
    with pytest.raises(DomainError):
        PotentialParams(q=q, **H2ISH)


def test_negative_q_admitted():
    p = PotentialParams(q=-0.5, **H2ISH)
    assert p.v2 < 0.0 and p.v3 > 0.0


def test_complex_q_rejected():
    with pytest.raises(DomainError, match="complex"):
        PotentialParams(q=1.0 + 0.5j, **H2ISH)


def test_minimum_value_at_equilibrium():
    for q in (1.0, 2.0, 0.5, -0.5):
        p = PotentialParams(q=q, **H2ISH)
        assert morse_potential(p, p.r_e) == pytest.approx(p.d_e * (q - 1.0) ** 2, rel=1e-14)


def test_large_r_limit_is_v3():
    p = PotentialParams(q=0.8, **H2ISH)
    assert morse_potential(p, 60.0) == pytest.approx(p.v3, rel=1e-12)


def test_minimum_located_at_r_e_for_plain_well():
    p = PotentialParams(q=1.0, **H2ISH)
    grid = np.linspace(0.05, 12.0, 200001)
    values = morse_potential(p, grid)
    assert abs(grid[np.argmin(values)] - p.r_e) < 1e-4


def test_deformed_well_minimum_is_zero_at_shifted_radius():
    # for q != 1 the true minimum over r > 0 sits at r_e - ln(q)/a with V = 0;
    # the value at r_e itself is D_e (q - 1)^2 (see test above), not the minimum
    p = PotentialParams(q=1.3, **H2ISH)
    grid = np.linspace(0.05, 12.0, 200001)
    values = morse_potential(p, grid)
    r_min = grid[np.argmin(values)]
    assert abs(r_min - (p.r_e - math.log(1.3) / p.a)) < 1e-4
    assert values.min() < 1e-6


@settings(max_examples=200)
@given(
    q=st.one_of(st.floats(0.05, 5.0), st.floats(-1.0, -0.05)),
    d_e=st.floats(0.1, 20.0),
    a=st.floats(0.5, 4.0),
    r_e=st.floats(0.4, 3.0),
    frac=st.floats(0.2, 10.0),
)
def test_two_algebraic_forms_agree(q, d_e, a, r_e, frac):
    p = PotentialParams(d_e=d_e, a=a, r_e=r_e, q=q)
    r = frac * r_e
    z = math.exp(-a * (r - r_e))
    three_term = p.v1 * z**2 - p.v2 * z + p.v3
    scale = max(abs(three_term), p.v1 * z**2, abs(p.v2) * z, p.v3, 1e-300)
    assert abs(morse_potential(p, r) - three_term) <= 1e-14 * scale


def test_mass_constant_limit_exact():
    p = PotentialParams(**H2ISH)
    mm = MassModel(m0=0.50391, delta=0.0)
    m1, m2 = _mass_derivatives(mm, p, 1.234)
    assert (mass(mm, p, 1.234), m1, m2) == (0.50391, 0.0, 0.0)


def test_mass_at_equilibrium_half_deformation():
    p = PotentialParams(**H2ISH)
    mm = MassModel(m0=2.0, delta=0.5)
    assert mass(mm, p, p.r_e) == pytest.approx(4.0 * 2.0, rel=1e-14)


def test_mass_derivatives_match_finite_differences():
    p = PotentialParams(**H2ISH)
    mm = MassModel(m0=0.50391, delta=0.3)
    r = 1.3 * p.r_e
    h = 1e-5 * p.r_e
    m1v, m2v = _mass_derivatives(mm, p, r)
    mp = (mass(mm, p, r + h) - mass(mm, p, r - h)) / (2 * h)
    mpp = (mass(mm, p, r + h) - 2 * mass(mm, p, r) + mass(mm, p, r - h)) / h**2
    assert m1v == pytest.approx(mp, rel=1e-8)
    assert m2v == pytest.approx(mpp, rel=1e-5)


def test_mass_pole_raises():
    p = PotentialParams(**H2ISH)
    mm = MassModel(m0=1.0, delta=0.5)
    pole = mass_pole_radius(mm, p)
    assert pole is not None and 0 < pole < p.r_e
    with pytest.raises(MassPoleError):
        mass(mm, p, pole * 0.9)


@pytest.mark.parametrize("field", ["d_e", "a", "r_e", "q"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_potential_params_reject_non_finite(field, value):
    with pytest.raises(DomainError, match=field):
        PotentialParams(**{**H2ISH, "q": 1.0, field: value})


@pytest.mark.parametrize("field", ["m0", "delta"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_mass_model_rejects_non_finite(field, value):
    with pytest.raises(DomainError, match=field):
        MassModel(**{"m0": 1.0, "delta": 0.3, field: value})


def test_mass_model_validation():
    with pytest.raises(DomainError):
        MassModel(m0=1.0, delta=1.0)
    with pytest.raises(DomainError):
        MassModel(m0=1.0, delta=-0.1)
    with pytest.raises(DomainError):
        MassModel(m0=0.0, delta=0.0)


def test_effective_potential_constant_mass_reduces():
    p = PotentialParams(**H2ISH)
    mm = MassModel(m0=0.50391, delta=0.0)
    r = np.linspace(0.3, 5.0, 50)
    inv_h22m = 1.0 / hbar2_over_2mu(mm.m0)
    expected = 5 * 6 / r**2 + inv_h22m * morse_potential(p, r)
    np.testing.assert_allclose(effective_potential(p, mm, 5, r), expected, rtol=1e-14)


def test_effective_potential_centrifugal_only_at_minimum():
    p = PotentialParams(**H2ISH)  # q = 1: potential term vanishes at r_e
    mm = MassModel(m0=0.50391, delta=0.0)
    assert effective_potential(p, mm, 5, p.r_e) == pytest.approx(30.0 / p.r_e**2, rel=1e-12)


def test_effective_potential_pdm_against_independent_composition():
    # rebuild every term from finite-difference mass derivatives
    p = PotentialParams(**H2ISH)
    mm = MassModel(m0=0.50391, delta=0.3)
    r = 2.0 * p.r_e
    h = 1e-6
    m_mid = mass(mm, p, r)
    m_hi = mass(mm, p, r + h)
    m_lo = mass(mm, p, r - h)
    m1 = (m_hi - m_lo) / (2 * h)
    m2 = (m_hi - 2 * m_mid + m_lo) / h**2
    two_m_over_h2 = 2.0 * m_mid * UNITS.amu_to_eV_per_c2 / UNITS.hbar_c**2
    expected = (
        -m2 / (2 * m_mid)
        + 0.75 * (m1 / m_mid) ** 2
        - (m1 / m_mid) / r
        + 0.0
        + two_m_over_h2 * morse_potential(p, r)
    )
    assert effective_potential(p, mm, 0, r) == pytest.approx(expected, rel=1e-6)


def test_radius_must_be_positive():
    p = PotentialParams(**H2ISH)
    with pytest.raises(DomainError):
        morse_potential(p, 0.0)
    with pytest.raises(DomainError):
        morse_potential(p, -1.0)
