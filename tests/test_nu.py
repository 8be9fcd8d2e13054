"""Checks of the parametric hypergeometric-reduction machinery.

The deformed-Morse instantiation has closed-form constants; with rational
inputs chosen so that both square roots are exact, every derived constant is
reproduced in exact arithmetic (Fractions).
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from crosscheck.nu import (
    NuInput,
    derive_constants,
    energy_equation_residual,
    exact_sqrt,
    key_polynomials,
    morse_nu_input,
)
from qmorse.errors import DomainError, NoRealSolutionError
from qmorse.spectrum import quantize


def _rational_morse_inputs(delta: Fraction, eps: Fraction, xi: Fraction, beta1: Fraction):
    # choose beta2 so that xi^2 = 1 + 4 eps^2 + (4/delta)(beta1/delta - beta2)
    beta2 = beta1 / delta + delta * (1 + 4 * eps**2 - xi**2) / 4
    return NuInput(c1=Fraction(1), c2=delta, c3=delta, A=beta1, B=beta2, C=eps**2), beta2


def test_morse_constants_exact_arithmetic():
    delta, eps, xi = Fraction(1, 3), Fraction(5, 2), Fraction(7, 2)
    beta1 = Fraction(9, 4)
    inp, beta2 = _rational_morse_inputs(delta, eps, xi, beta1)
    c = derive_constants(inp, sqrt=exact_sqrt)
    assert c.c4 == 0
    assert c.c5 == -delta / 2
    assert c.c6 == (delta**2 + 4 * beta1) / 4
    assert c.c7 == -beta2
    assert c.c8 == eps**2
    assert c.c9 == delta**2 * xi**2 / 4
    assert c.c10 == 2 * eps
    assert c.c11 == xi
    assert c.c12 == eps
    assert c.c13 == (1 + xi) / 2


def test_c1_equal_one_forces_c4_zero(rng):
    for _ in range(50):
        c2, c3 = rng.uniform(0.1, 2.0, size=2)
        # B <= 0 keeps c9 = c3 (c7 + c3 c8) + c6 non-negative for any A, C >= 0
        inp = NuInput(1.0, c2, c3, rng.uniform(0, 5), -rng.uniform(0, 5), rng.uniform(0, 5))
        assert derive_constants(inp).c4 == 0.0


def test_negative_c8_raises_with_value():
    inp = NuInput(c1=1.0, c2=0.5, c3=0.5, A=1.0, B=1.0, C=-2.0)
    with pytest.raises(NoRealSolutionError) as excinfo:
        derive_constants(inp)
    assert excinfo.value.value == pytest.approx(-2.0)


def test_c3_zero_is_rejected():
    with pytest.raises(DomainError):
        derive_constants(NuInput(1.0, 0.0, 0.0, 1.0, 1.0, 1.0))


def test_key_polynomials_reproduce_morse_forms():
    delta, beta1, beta2 = 0.4, 250.0, 560.0
    qz = quantize(0, beta1, beta2, delta).raise_fault()
    eps, xi = float(qz.eps), float(qz.xi)
    inp = morse_nu_input(beta1, beta2, eps, delta)
    kp = key_polynomials(inp)
    for z in (0.0, 0.3, 1.0, 2.0):
        assert kp.pi(z) == pytest.approx(eps - 0.5 * delta * (1 + 2 * eps + xi) * z, rel=1e-12)
        assert kp.tau(z) == pytest.approx(1 + 2 * eps - delta * (2 + 2 * eps + xi) * z, rel=1e-12)
    assert kp.k == pytest.approx(beta2 - delta * (2 * eps + xi) * eps, rel=1e-12)
    assert kp.tau_prime == pytest.approx(-delta * (2 + 2 * eps + xi), rel=1e-12)
    assert kp.tau_prime < 0
    assert kp.physical


def test_alternate_branch_flagged():
    inp = morse_nu_input(250.0, 560.0, 16.0, 0.4)
    alt = key_polynomials(inp, branch="alternate")
    assert not alt.physical
    phys = key_polynomials(inp, branch="physical")
    assert alt.k != phys.k


def test_residual_vanishes_at_quantized_epsilon(rng):
    # the quantization condition holds at the closed-form eps for random draws
    worst = 0.0
    accepted = 0
    while accepted < 1000:
        delta = rng.uniform(0.05, 0.95)
        beta1 = rng.uniform(1.0, 400.0)
        beta2 = rng.uniform(0.5, 2.0) * 2.0 * math.sqrt(beta1)
        n = int(rng.integers(0, 6))
        qz = quantize(n, beta1, beta2, delta)
        eps = float(qz.eps)
        if qz.fault or eps <= 0:  # no real eps, or xi^2 < 0
            continue
        # a valid bound state also needs the positive-branch consistency
        # xi = 2 sqrt(beta1)/delta - 2 eps - (2n + 1) > 0
        if 2.0 * math.sqrt(beta1) / delta - 2.0 * eps - (2 * n + 1) <= 0:
            continue
        inp = morse_nu_input(beta1, beta2, eps, delta)
        worst = max(worst, abs(energy_equation_residual(inp, n)))
        accepted += 1
    assert worst < 1e-10


def test_residual_term_isolation():
    # constructed so that every term except c7 vanishes at n = 0
    inp = NuInput(c1=1.0, c2=1.0, c3=0.5, A=1.0, B=2.0, C=0.0)
    c = derive_constants(inp)
    assert c.c5 == 0.0 and c.c8 == 0.0 and c.c9 == 0.0
    assert energy_equation_residual(inp, 0) == pytest.approx(c.c7)


def test_residual_monotone_in_eps_near_root():
    delta, beta1, beta2, n = 0.3, 300.0, 640.0, 2
    eps_star = float(quantize(n, beta1, beta2, delta).raise_fault().eps)
    values = []
    for eps in np.linspace(0.9 * eps_star, 1.1 * eps_star, 21):
        values.append(energy_equation_residual(morse_nu_input(beta1, beta2, eps, delta), n))
    diffs = np.diff(values)
    assert np.all(diffs > 0) or np.all(diffs < 0)


def test_negative_n_rejected():
    with pytest.raises(DomainError):
        energy_equation_residual(NuInput(1.0, 0.5, 0.5, 1.0, 1.0, 1.0), -1)
