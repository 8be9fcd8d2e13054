import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import eval_genlaguerre, eval_jacobi, gamma

from crosscheck.series import (
    SeriesDivergenceError,
    genlaguerre_poly_deriv,
    hyp2f1,
    hyp3f2,
    jacobi_poly_deriv,
    jacobi_via_2f1,
    pochhammer,
)
from qmorse.errors import DomainError
from qmorse.specfun import MAX_RECURRENCE_WORK, genlaguerre_poly, jacobi_poly, log_gamma_ratio


def test_pochhammer_matches_gamma_ratio():
    for x in (0.3, 1.0, 2.5, 17.2):
        for p in range(0, 31):
            via_gamma = gamma(x + p) / gamma(x)
            assert pochhammer(x, p) == pytest.approx(via_gamma, rel=1e-12)


@pytest.mark.parametrize("x", [0.7, 12.5, 19.9, 20.0, 999.0, 3360.7, 1e5, 6e10])
@pytest.mark.parametrize("s", [0.0, 0.3, 41.7, 769.0])
def test_log_gamma_ratio_matches_mpmath(x, s):
    # both branches, and x = 6e10 where two float lgamma values keep only 1e-4
    with mpmath.workdps(40):
        want = float(mpmath.loggamma(mpmath.mpf(x) + s) - mpmath.loggamma(mpmath.mpf(x)))
    assert log_gamma_ratio(x, s) == pytest.approx(want, rel=1e-14, abs=1e-14)


def test_pochhammer_zero_order_is_one():
    assert pochhammer(123.4, 0) == 1.0
    assert pochhammer(-3.0, 0) == 1.0


def test_pochhammer_negative_order_rejected():
    with pytest.raises(DomainError):
        pochhammer(1.0, -1)


def test_jacobi_matches_scipy(rng):
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(0, 21))
        a = rng.uniform(0.0, 30.0)
        b = rng.uniform(0.0, 30.0)
        x = rng.uniform(-1.0, 1.0)
        ref = eval_jacobi(n, a, b, x)
        worst = max(worst, abs(jacobi_poly(n, a, b, x) - ref) / max(1.0, abs(ref)))
    assert worst < 1e-10


def test_jacobi_matches_2f1_route(rng):
    # the hypergeometric route is exact algebra but its terminating series
    # cancels heavily; agreement is asserted relative to the series term scale
    for _ in range(300):
        n = int(rng.integers(0, 21))
        a = rng.uniform(0.0, 30.0)
        b = rng.uniform(0.0, 30.0)
        s = rng.uniform(0.0, 1.0)
        term_scale = 0.0
        term = 1.0
        for p in range(n + 1):
            term_scale = max(term_scale, abs(term))
            term = term * (-n + p) * (1 + a + b + n + p) / ((a + 1 + p) * (p + 1)) * s
        scale = pochhammer(a + 1.0, n) / math.factorial(n) * term_scale
        direct = jacobi_poly(n, a, b, 1.0 - 2.0 * s)
        assert abs(jacobi_via_2f1(n, a, b, s) - direct) <= 1e-10 * max(scale, 1.0)


def test_laguerre_matches_scipy(rng):
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(0, 31))
        a = rng.uniform(0.0, 50.0)
        y = rng.uniform(0.0, 100.0)
        ref = eval_genlaguerre(n, a, y)
        worst = max(worst, abs(genlaguerre_poly(n, a, y) - ref) / max(1.0, abs(ref)))
    assert worst < 1e-10


def test_jacobi_derivative_identity():
    n, a, b = 6, 1.5, 2.5
    for x in np.linspace(-0.9, 0.9, 7):
        h = 1e-6
        fd = (jacobi_poly(n, a, b, x + h) - jacobi_poly(n, a, b, x - h)) / (2 * h)
        assert jacobi_poly_deriv(n, a, b, x) == pytest.approx(fd, rel=1e-8)


def test_laguerre_derivative_identity():
    n, a = 5, 3.0
    for y in np.linspace(0.2, 12.0, 7):
        h = 1e-6
        fd = (genlaguerre_poly(n, a, y + h) - genlaguerre_poly(n, a, y - h)) / (2 * h)
        assert genlaguerre_poly_deriv(n, a, y) == pytest.approx(fd, rel=1e-8)
    assert genlaguerre_poly_deriv(0, a, 1.0) == 0.0


def test_2f1_terminating_polynomial():
    # 2F1(-1, 3; 2; z) = 1 - 1.5 z
    for z in (0.0, 0.5, 2.0, -3.0):
        assert hyp2f1(-1, 3, 2, z) == pytest.approx(1.0 - 1.5 * z, rel=1e-14)


def test_2f1_known_value():
    # 2F1(1, 1; 2; z) = -ln(1 - z)/z
    z = 0.37
    assert hyp2f1(1.0, 1.0, 2.0, z) == pytest.approx(-math.log(1 - z) / z, rel=1e-12)


def test_2f1_divergence_raises():
    with pytest.raises(SeriesDivergenceError):
        hyp2f1(0.5, 0.7, 1.9, 1.2)


def test_3f2_terminating():
    # 3F2(1.5, -1, 3; 3.5; 2; 0.5) = 1 - (1.5*3)/(3.5*2) * 0.5
    value = hyp3f2(1.5, -1, 3, 3.5, 2, 0.5)
    assert value == pytest.approx(1.0 - 4.5 / 7.0 * 0.5, rel=1e-14)


@settings(max_examples=100)
@given(n=st.integers(0, 25), a=st.floats(0.1, 20.0), y=st.floats(0.0, 60.0))
def test_laguerre_recurrence_property(n, a, y):
    # (n+1) L_{n+1} = (2n+1+a-y) L_n - (n+a) L_{n-1}
    l_n = genlaguerre_poly(n, a, y)
    l_np1 = genlaguerre_poly(n + 1, a, y)
    l_nm1 = genlaguerre_poly(n - 1, a, y) if n > 0 else 0.0
    lhs = (n + 1) * l_np1
    rhs = (2 * n + 1 + a - y) * l_n - (n + a) * l_nm1
    assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9 * max(abs(l_n), 1.0))


@pytest.mark.parametrize("poly", [
    lambda n, x: jacobi_poly(n, 30.0, 2.0, x), lambda n, x: genlaguerre_poly(n, 30.0, x),
], ids=["jacobi", "laguerre"])
def test_recurrence_work_bound(poly):
    # refused before the loop past n * (points + overhead) = MAX_RECURRENCE_WORK,
    # overhead 1000 points for an array and 200 for a scalar; the CLI fuzz range
    # (n, points <= 2000) is inside
    for points in (400, 2000):
        n = int(MAX_RECURRENCE_WORK // (points + 1000)) + 1
        with pytest.raises(DomainError, match="work bound"):
            poly(n, np.linspace(0.0, 0.5, points))
    for x in (0.25, np.float64(0.25), 0.25 + 0.0j):
        with pytest.raises(DomainError, match="work bound"):
            poly(int(MAX_RECURRENCE_WORK // 201) + 1, x)
    with np.errstate(all="ignore"):
        assert np.shape(poly(2000, np.linspace(0.0, 0.5, 2000))) == (2000,)
        # a scalar keeps the range an array overhead would refuse
        assert np.isfinite(poly(int(MAX_RECURRENCE_WORK // 1001) + 1, 0.25))
