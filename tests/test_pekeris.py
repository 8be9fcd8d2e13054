import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crosscheck.substituted import pekeris_centrifugal, pekeris_inverse_r
from qmorse.errors import DomainError
from qmorse.pekeris import pekeris_coefficients
from qmorse.potential import MassModel, PotentialParams
from qmorse.spectrum import strengths
from qmorse.units import hbar2_over_2mu


def test_alpha_three_exact_values():
    pc = pekeris_coefficients(3.0)
    assert pc.a0 == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert pc.a1 == pytest.approx(2.0 / 3.0, rel=1e-15)
    assert pc.a2 == 0.0


def test_large_alpha_asymptote():
    pc = pekeris_coefficients(1e8)
    assert pc.a0 == pytest.approx(1.0, abs=1e-7)
    assert abs(pc.a1) < 1e-7 and abs(pc.a2) < 1e-7
    assert pc.b0 == pytest.approx(1.0, abs=1e-7)


def test_alpha_must_be_positive():
    with pytest.raises(DomainError):
        pekeris_coefficients(0.0)


@settings(max_examples=300)
@given(alpha=st.floats(0.1, 50.0))
def test_six_sum_rules(alpha):
    pc = pekeris_coefficients(alpha)
    assert pc.a0 + pc.a1 + pc.a2 == pytest.approx(1.0, rel=1e-12)
    assert pc.a1 + 2 * pc.a2 == pytest.approx(2.0 / alpha, rel=1e-12)
    assert pc.a1 / 2 + 2 * pc.a2 == pytest.approx(3.0 / alpha**2, rel=1e-12)
    assert pc.b0 + pc.b1 + pc.b2 == pytest.approx(1.0, rel=1e-12)
    assert pc.b1 + 2 * pc.b2 == pytest.approx(1.0 / alpha, rel=1e-12)
    assert pc.b1 / 2 + 2 * pc.b2 == pytest.approx(1.0 / alpha**2, rel=1e-12)


def test_expansions_exact_at_equilibrium():
    p = PotentialParams(d_e=4.7446, a=1.9425, r_e=0.7416)
    assert pekeris_centrifugal(p, 5, p.r_e) == pytest.approx(30.0 / p.r_e**2, rel=1e-12)
    assert pekeris_inverse_r(p, p.r_e) == pytest.approx(1.0 / p.r_e, rel=1e-12)


def test_centrifugal_accuracy_near_equilibrium():
    # within 5% of r_e the expansion tracks l(l+1)/r^2 to better than 1e-3
    p = PotentialParams(d_e=4.7446, a=1.9425, r_e=0.7416)
    for r in np.linspace(0.951 * p.r_e, 1.049 * p.r_e, 41):
        exact = 30.0 / r**2
        rel = abs(pekeris_centrifugal(p, 5, r) - exact) / exact
        assert rel < 1e-3


def test_third_order_residual_slope():
    # the leading error of both expansions is cubic in x = (r - r_e)/r_e
    p = PotentialParams(d_e=4.7446, a=1.9425, r_e=0.7416)
    xs = np.array([0.02, 0.01, 0.005, 0.0025])
    errs_cent = []
    errs_inv = []
    for x in xs:
        r = p.r_e * (1.0 + x)
        errs_cent.append(abs(pekeris_centrifugal(p, 5, r) - 30.0 / r**2))
        errs_inv.append(abs(pekeris_inverse_r(p, r) - 1.0 / r))
    for errs in (errs_cent, errs_inv):
        slope = np.polyfit(np.log(xs), np.log(errs), 1)[0]
        assert slope == pytest.approx(3.0, abs=0.2)


def _spq(p, l):
    """S, P and Q read off ``strengths``: beta2 is linear in delta, beta1 quadratic.

    They do not depend on the mass; a light one (1e-6 amu) makes the
    delta-free parts of beta1 and beta2, which scale with m0, small enough
    that the differences keep S, P and Q to roundoff.
    """
    (b1_0, b2_0, offset), (b1_1, _, _), (b1_2, b2_2, _) = (
        strengths(p, MassModel(m0=1e-6, delta=d), l) for d in (0.0, 0.25, 0.5))
    s = (b2_2 - b2_0) / 0.5
    q = (b1_2 - 2.0 * b1_1 + b1_0) / (2.0 * 0.25**2)
    pp = (b1_1 - b1_0) / 0.25 - q * 0.25
    return s, pp, q, offset / (hbar2_over_2mu(1e-6) * p.a**2)


def test_composite_l0_forms():
    p = PotentialParams(d_e=4.7446, a=1.9425, r_e=0.7416)
    pc = pekeris_coefficients(p.alpha)
    s, pp, q, _ = _spq(p, 0)
    assert s == pytest.approx(1.0 - 2.0 * pc.b0 / p.alpha, rel=1e-14)
    assert q == pytest.approx(s, rel=1e-14)
    assert pp == pytest.approx(2.0 * pc.b1 / p.alpha, rel=1e-14)


def test_composite_s_minus_q_identity():
    # S - Q = gamma a0 / a^2, which is also the continuum offset over hbar^2 a^2/2m0
    p = PotentialParams(d_e=4.7446, a=1.9425, r_e=0.7416)
    pc = pekeris_coefficients(p.alpha)
    for l in (1, 5, 7, 10):
        s, _, q, offset_over_k = _spq(p, l)
        gamma_a0 = l * (l + 1) / p.r_e**2 * pc.a0 / p.a**2
        assert s - q == pytest.approx(gamma_a0, rel=1e-12)
        assert s - q == pytest.approx(offset_over_k, rel=1e-12)


def test_composite_finite_for_high_l():
    p = PotentialParams(d_e=11.2256019, a=2.2994, r_e=1.1283)
    assert all(math.isfinite(v) for v in _spq(p, 10))


@pytest.mark.parametrize("l", [-1, 1.5, [0, 2.5]])
def test_strengths_reject_a_non_integer_l(l):
    p = PotentialParams(d_e=4.7446, a=1.9425, r_e=0.7416)
    with pytest.raises(DomainError, match="non-negative integer"):
        strengths(p, MassModel(m0=0.5), l)
