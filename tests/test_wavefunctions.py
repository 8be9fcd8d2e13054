import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from crosscheck.nodes import node_count
from crosscheck.residuals import (
    state_shape,
    transformed_residual_constant_mass,
    transformed_residual_pdm,
)
from crosscheck.series import hyp2f1, hyp3f2
from qmorse import builtin
from qmorse.errors import NonNormalizableError
from qmorse.potential import MassModel, PotentialParams, mass, mass_pole_radius
from qmorse.special_cases import GeneralizedVibrationalCase, gv_lambda
from qmorse.specfun import genlaguerre_poly, jacobi_poly
from qmorse.spectrum import DELTA_CROSSOVER, QuantumState, quantize, strengths
from qmorse.wavefunctions import log_norm, radial_wavefunction


def _u(p, mm, state, r):
    return radial_wavefunction(p, mm, state, r)[0]


def _cm_u(p, m0, n, r, l=0):
    """The constant-mass u of state (n, l) for reduced mass m0."""
    return _u(p, MassModel(m0=m0), QuantumState(n, l), r)


def test_pdm_ground_state_has_pure_envelope(h2_pdm):
    # n = 0: the polynomial factor is 1, so u = N z^eps (1 - delta z)^{(1+xi)/2}
    p, mm = h2_pdm
    state = QuantumState(0, 0)
    eps, xi, _, _ = state_shape(p, mm, state)
    r = np.linspace(0.3, 4.0, 50)
    z = np.exp(-p.a * (r - p.r_e))
    expected = z**eps * (1.0 - mm.delta * z) ** (0.5 * (1.0 + xi))
    np.testing.assert_allclose(_u(p, mm, state, r) / math.exp(log_norm(p, mm, state)),
                               expected, rtol=1e-14)


@pytest.mark.parametrize("delta", [0.0, 0.3])
def test_psi_factor_is_the_mass_profile(h2, delta):
    # psi = u sqrt(m/m0)/r, with m the profile of potential.mass bit for bit
    p = PotentialParams.from_molecule(h2, 1.0)
    mm = MassModel.from_molecule(h2, delta)
    r = np.linspace(0.3, 4.0, 200)
    u, psi = radial_wavefunction(p, mm, QuantumState(2, 1), r)
    assert np.array_equal(psi, u * np.sqrt(mass(mm, p, r) / mm.m0) / r)


@pytest.mark.parametrize("delta, q", [(0.0, 1e16), (0.01, 1e12)], ids=["constant", "pdm"])
def test_recurrence_overflow_raises(delta, q):
    # normalizable CO states of degree 2000 whose recurrence overflows a float
    # at every r: OverflowError, not a NaN array, and no RuntimeWarning
    co = builtin("CO")
    p, mm = PotentialParams.from_molecule(co, q), MassModel.from_molecule(co, delta)
    r = np.linspace(p.r_e - 4.0 / p.a, p.r_e + 12.0 / p.a, 50)
    with warnings.catch_warnings(), pytest.raises(OverflowError, match="n=2000"):
        warnings.simplefilter("error")
        radial_wavefunction(p, mm, QuantumState(2000, 0), r)


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_pdm_node_counts(h2_pdm, n):
    p, mm = h2_pdm
    r = np.linspace(0.2, 8.0, 6000)
    u = _u(p, mm, QuantumState(n, 0), r)
    assert node_count(u) == n


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_constant_mass_node_counts(h2_params, n):
    r = np.linspace(0.15, 8.0, 6000)
    u = _cm_u(h2_params, 0.50391, n, r, l=0)
    assert node_count(u) == n


def test_pdm_quadrature_normalization_is_unit(h2_pdm):
    p, mm = h2_pdm
    for n in (0, 1, 2, 3):
        state = QuantumState(n, 0)
        integrand = lambda r: _u(p, mm, state, r) ** 2
        total, _ = quad(integrand, 0.14, 60.0, limit=400, epsabs=0.0, epsrel=1e-10)
        assert total == pytest.approx(1.0, abs=1e-8)


def test_pdm_series_constant_reported_not_trusted(h2_pdm, series_log_norm, capsys):
    # the printed series form is ill-defined at n = 0 (Gamma(0)) and wildly off
    # the closed-form constant where it does evaluate; the ratio is a reported
    # finding, never an assertion
    p, mm = h2_pdm
    series0, note0 = series_log_norm(p, mm, QuantumState(0, 0))
    assert series0 is None and "n = 0" in note0
    for n in (1, 2):
        state = QuantumState(n, 0)
        closed = log_norm(p, mm, state)
        series, note = series_log_norm(p, mm, state)
        log_ratio = None if series is None else series - closed
        print(f"series/closed-form log ratio (n={n}):", log_ratio, "note:", note or "ok")
        assert math.isfinite(closed)
        if series is not None:
            assert math.isfinite(series)


def _quad_log_norm_pdm(p, mm, state):
    """-(1/2) log of int u^2 dr for the bare profile, by adaptive quadrature in z.

    dr = -dz/(a z); z runs from 0 (r -> infinity) to r = 0 or to the mass
    pole, whichever comes first.
    """
    eps, xi, _, _ = state_shape(p, mm, state)
    two_eps, s_exp = 2.0 * eps, 1.0 + xi
    z_hi = min(math.exp(p.alpha), 1.0 / mm.delta)
    z_peak = (eps / mm.delta) / (eps + 0.5 * s_exp)
    g_peak = (two_eps - 1.0) * math.log(z_peak) + s_exp * math.log1p(-mm.delta * z_peak)

    def integrand(z):
        w = 1.0 - mm.delta * z
        if z <= 0.0 or w <= 0.0:
            return 0.0
        poly = jacobi_poly(state.n, two_eps, xi, 1.0 - 2.0 * mm.delta * z)
        return math.exp((two_eps - 1.0) * math.log(z) + s_exp * math.log(w) - g_peak) * poly**2

    points = [z_peak] if z_peak < z_hi else None
    value, _ = quad(integrand, 0.0, z_hi, points=points, limit=500, epsabs=0.0, epsrel=1e-12)
    return -0.5 * (g_peak - math.log(p.a) + math.log(value))


def _quad_log_norm_constant_mass(p, m0, n, l):
    """-(1/2) log of int R^2 dr for the bare profile, by adaptive quadrature in y."""
    beta1, beta2, _ = map(float, strengths(p, MassModel(m0=m0), l))
    two_eps = 2.0 * float(quantize(n, beta1, beta2, 0.0).raise_fault().eps)
    c = 2.0 * math.sqrt(beta1)
    y_hi = c * math.exp(p.alpha)
    y_peak = max(two_eps - 1.0, 1e-3)
    g_peak = (two_eps - 1.0) * math.log(y_peak) - y_peak

    def integrand(y):
        if y <= 0.0:
            return 0.0
        poly = genlaguerre_poly(n, two_eps, y)
        return math.exp((two_eps - 1.0) * math.log(y) - y - g_peak) * poly**2

    points = [y_peak] if y_peak < y_hi else None
    value, _ = quad(integrand, 0.0, y_hi, points=points, limit=500, epsabs=0.0, epsrel=1e-12)
    return -0.5 * (-math.log(p.a) - two_eps * math.log(c) + g_peak + math.log(value))


@pytest.mark.parametrize("name", ["H2", "LiH", "HCl", "CO"])
def test_closed_form_norms_match_quadrature(name):
    # independent route: adaptive quadrature of the bare profiles over the
    # physical domain, which the closed forms extend to the whole transformed
    # domain (identical when the pole is at r > 0, a tail of e^-100 otherwise)
    mol = builtin(name)
    p = PotentialParams.from_molecule(mol, 1.0)
    worst = 0.0
    for delta in (0.0, 0.05, 0.3, 0.6):
        mm = MassModel.from_molecule(mol, delta)
        for n in range(11):
            for l in (0, 5):
                closed = log_norm(p, mm, QuantumState(n, l))
                if delta == 0.0:
                    reference = _quad_log_norm_constant_mass(p, mol.mu_amu, n, l)
                else:
                    reference = _quad_log_norm_pdm(p, mm, QuantumState(n, l))
                worst = max(worst, abs(closed - reference))
    assert worst <= 1e-10


def _mp_log_norm_pdm(eps, xi, delta, a, n, dps=200):
    """-(1/2) log of int u^2 dr in mpmath, through Beta integrals.

    In s = delta z the norm integral is (1/a) delta^{-2 eps} int_0^1
    s^{2 eps - 1} (1 - s)^{1 + xi} P(s)^2 ds, and the 2F1 form
    P_n^{(2 eps, xi)}(1 - 2s) = binom(n + 2 eps, n) sum_k c_k s^k turns it
    into sum_m (sum_{j+k=m} c_j c_k) B(2 eps + m, xi + 2).  The alternating
    sum cancels about 120 digits at n = 47, hence the working precision.
    """
    with mpmath.workdps(dps):
        eps, xi, delta, a = (mpmath.mpf(v) for v in (eps, xi, delta, a))
        c = [mpmath.rf(-n, k) * mpmath.rf(n + 2 * eps + xi + 1, k)
             / (mpmath.rf(2 * eps + 1, k) * mpmath.factorial(k)) for k in range(n + 1)]
        beta = mpmath.beta(2 * eps, xi + 2)
        terms = []
        for m in range(2 * n + 1):
            terms.append(beta * mpmath.fsum(c[j] * c[m - j]
                                            for j in range(max(0, m - n), min(m, n) + 1)))
            beta *= (2 * eps + m) / (2 * eps + xi + 2 + m)
        total = mpmath.fsum(terms)
        assert max(abs(t) for t in terms) / total < mpmath.mpf(10) ** (dps - 40)
        log_integral = (2 * mpmath.log(mpmath.binomial(n + 2 * eps, n)) + mpmath.log(total)
                        - 2 * eps * mpmath.log(delta) - mpmath.log(a))
        return float(-log_integral / 2)


@pytest.mark.parametrize("name, delta, n", [
    ("LiH", 0.6, 47),   # deep in the ladder: 2 eps = 769, xi = 767
    ("LiH", 1e-9, 3),   # just above DELTA_CROSSOVER: xi = 6e10
    ("CO", 0.05, 10),
])
def test_pdm_log_norm_matches_mpmath(name, delta, n):
    mol = builtin(name)
    p = PotentialParams.from_molecule(mol, 1.0)
    mm = MassModel.from_molecule(mol, delta)
    state = QuantumState(n, 0)
    eps, xi, _, _ = state_shape(p, mm, state)
    reference = _mp_log_norm_pdm(eps, xi, delta, p.a, n)
    assert log_norm(p, mm, state) == pytest.approx(reference, abs=1e-12)


@pytest.mark.parametrize("name", ["H2", "LiH", "HCl", "CO"])
def test_log_norm_below_crossover_is_the_constant_mass_norm(name):
    # 0 < delta < DELTA_CROSSOVER is routed to the constant-mass branch, bit for bit
    mol = builtin(name)
    p = PotentialParams.from_molecule(mol, 1.0)
    tiny = MassModel.from_molecule(mol, 1e-12)
    assert 0.0 < tiny.delta < DELTA_CROSSOVER
    for n in (0, 3, 10):
        for l in (0, 5):
            state = QuantumState(n, l)
            assert log_norm(p, tiny, state) == log_norm(p, MassModel.from_molecule(mol, 0.0), state)


def test_virtual_pole_profiles_integrate_to_one_over_r_positive():
    # with the pole at r < 0 (or no pole) the closed forms also count the
    # profile's tail beyond r = 0; over r > 0 alone the integral is still 1
    for name in ("H2", "CO"):
        mol = builtin(name)
        p = PotentialParams.from_molecule(mol, 1.0)
        for delta in (0.0, 0.05):
            mm = MassModel.from_molecule(mol, delta)
            assert mass_pole_radius(mm, p) is None
            for n in (0, 5, 10):
                state = QuantumState(n, 0)
                if delta == 0.0:
                    u = lambda r: _cm_u(p, mol.mu_amu, n, r)
                else:
                    u = lambda r: _u(p, mm, state, r)
                total, _ = quad(lambda r: u(r) ** 2, 0.0, p.r_e + 40.0 / p.a, points=[p.r_e],
                                limit=400, epsabs=0.0, epsrel=1e-12)
                assert total == pytest.approx(1.0, abs=1e-10)


def test_constant_mass_normalized_unit_integral():
    for name, n, l in (("H2", 0, 0), ("H2", 4, 0), ("CO", 2, 10), ("LiH", 3, 5)):
        mol = builtin(name)
        p = PotentialParams.from_molecule(mol, 1.0)
        f = lambda r: _cm_u(p, mol.mu_amu, n, r, l=l) ** 2
        total, _ = quad(f, 1e-3, 40.0, limit=400, epsabs=0.0, epsrel=1e-10)
        assert total == pytest.approx(1.0, abs=1e-8)


def test_constant_mass_orthogonality(h2_params):
    grids = {}
    for n in range(5):
        grids[n] = lambda r, n=n: _cm_u(h2_params, 0.50391, n, r, l=0)
    for n in range(5):
        for m in range(n + 1, 5):
            overlap, _ = quad(lambda r: grids[n](r) * grids[m](r), 1e-3, 40.0,
                              limit=400, epsabs=1e-12, epsrel=1e-10)
            assert abs(overlap) < 1e-6


def test_pdm_orthogonality_weight_is_mass_weighted(h2_pdm, capsys):
    # eigenfunctions of the varying-mass problem are orthogonal under the
    # m(r) dr measure; the plain dr overlap is logged as an empirical finding
    p, mm = h2_pdm
    states = [QuantumState(n, 0) for n in range(3)]

    def u(nidx, r):
        return _u(p, mm, states[nidx], r)

    for i in range(3):
        for j in range(i + 1, 3):
            weighted, _ = quad(
                lambda r: u(i, r) * u(j, r) * mass(mm, p, r) / mm.m0,
                0.14, 60.0, limit=400, epsabs=1e-12, epsrel=1e-10)
            plain, _ = quad(lambda r: u(i, r) * u(j, r), 0.14, 60.0,
                            limit=400, epsabs=1e-12, epsrel=1e-10)
            print(f"pdm overlap ({i},{j}): mass-weighted={weighted:.3e} plain={plain:.3e}")
            assert abs(weighted) < 1e-6


def test_transformed_equation_residuals(h2_params, h2_pdm):
    z_grid = np.linspace(0.01, 0.99, 400)
    for n in range(4):
        assert transformed_residual_constant_mass(h2_params, 0.50391, n, 0, z_grid) < 1e-6
        assert transformed_residual_constant_mass(h2_params, 0.50391, n, 10, z_grid) < 1e-6
    p, mm = h2_pdm
    z_pdm = np.linspace(0.01, 0.99 / mm.delta * 0.99, 400)
    for n in range(4):
        assert transformed_residual_pdm(p, mm, QuantumState(n, 5), z_pdm) < 1e-6


def test_beta_integral_identity():
    # int_0^1 (1-s)^{mu-1} s^{nu-1} 2F1(alpha, beta; gamma; a s) ds
    #   = Gamma(mu)Gamma(nu)/Gamma(mu+nu) 3F2(nu, alpha, beta; mu+nu; gamma; a)
    mu, nu, alpha, beta, gamma_p, a = 2.0, 1.5, -1.0, 3.0, 2.0, 0.5
    lhs, _ = quad(lambda s: (1 - s) ** (mu - 1) * s ** (nu - 1) * hyp2f1(alpha, beta, gamma_p, a * s),
                  0.0, 1.0, epsabs=1e-13, epsrel=1e-12)
    rhs = (math.gamma(mu) * math.gamma(nu) / math.gamma(mu + nu)
           * hyp3f2(nu, alpha, beta, mu + nu, gamma_p, a))
    assert lhs == pytest.approx(rhs, rel=1e-8)
    assert rhs == pytest.approx(19.0 / 105.0, rel=1e-12)


def test_special_case_gv_final_state_loses_decay():
    case = GeneralizedVibrationalCase(D=4.7, alpha=1.5, q=1.0, mu=0.5, r_e=0.74)
    lam = gv_lambda(case)
    n_top = int(math.floor(lam * case.q - 0.5))
    s_top = lam * case.q - n_top - 0.5  # in (0, 1): weak x-decay for the last state
    assert 0.0 < s_top < 1.0


def test_pdm_nonnormalizable_epsilon_rejected(h2_pdm):
    p, mm = h2_pdm
    with pytest.raises(NonNormalizableError):
        log_norm(p, mm, QuantumState(60, 0))
