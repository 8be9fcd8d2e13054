"""Parametric Nikiforov-Uvarov machinery for hypergeometric-type equations.

Works on the generalized equation

    [z(1-c3 z)]^2 u'' + z(1-c3 z)(c1 - c2 z) u' + (-A z^2 + B z - C) u = 0,

deriving the ten dependent constants c4..c13, the key polynomials pi(z),
tau(z) and the scalar k, and the algebraic quantization condition whose root
in the embedded energy variable defines the eigenvalue.

All arithmetic is duck-typed: passing Fraction inputs together with an exact
``sqrt`` callable reproduces every constant in exact arithmetic.  An
independent derivation of the closed form in ``qmorse.spectrum``: the tests
check the quantized eps against this quantization condition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from qmorse.errors import DomainError, NoRealSolutionError


class NuConditionError(ValueError):
    """The bound-state negativity condition tau'(z) < 0 is violated."""


@dataclass(frozen=True)
class NuInput:
    """Coefficients (c1, c2, c3) of the equation and (A, B, C) of its free part."""

    c1: float
    c2: float
    c3: float
    A: float
    B: float
    C: float


@dataclass(frozen=True)
class NuConstants:
    c4: float
    c5: float
    c6: float
    c7: float
    c8: float
    c9: float
    c10: float
    c11: float
    c12: float
    c13: float
    sqrt_c8: float
    sqrt_c9: float


@dataclass(frozen=True)
class KeyPolynomials:
    """pi and tau as evaluators plus the scalars k and tau'."""

    pi: Callable[[float], float]
    tau: Callable[[float], float]
    k: float
    tau_prime: float
    branch: str
    physical: bool


def exact_sqrt(value: Fraction) -> Fraction:
    """Square root of a Fraction whose numerator and denominator are perfect squares."""
    num = math.isqrt(value.numerator)
    den = math.isqrt(value.denominator)
    assert num * num == value.numerator and den * den == value.denominator
    return Fraction(num, den)


def derive_constants(inp: NuInput, sqrt: Callable = math.sqrt) -> NuConstants:
    """Derive c4..c13 from the six input constants.

    Requires c3 != 0 (the c3 -> 0 confluent limit is handled by a dedicated
    spectrum branch, not here) and c8, c9 >= 0 for a real bound-state set.
    """
    if inp.c3 == 0:
        raise DomainError("c3 must be nonzero; use the confluent (constant-mass) branch")
    c4 = (1 - inp.c1) / 2
    c5 = (inp.c2 - 2 * inp.c3) / 2
    c6 = c5**2 + inp.A
    c7 = 2 * c4 * c5 - inp.B
    c8 = c4**2 + inp.C
    c9 = inp.c3 * (c7 + inp.c3 * c8) + c6
    if c8 < 0:
        raise NoRealSolutionError("no real NU solution: c8 < 0", c8)
    if c9 < 0:
        raise NoRealSolutionError("no real NU solution: c9 < 0", c9)
    sqrt_c8 = sqrt(c8)
    sqrt_c9 = sqrt(c9)
    c10 = inp.c1 + 2 * c4 + 2 * sqrt_c8 - 1
    c11 = 1 - inp.c1 - 2 * c4 + (2 / inp.c3) * sqrt_c9
    c12 = c4 + sqrt_c8
    c13 = -c4 + (sqrt_c9 - c5) / inp.c3
    return NuConstants(c4, c5, c6, c7, c8, c9, c10, c11, c12, c13, sqrt_c8, sqrt_c9)


def key_polynomials(
    inp: NuInput, branch: str = "physical", sqrt: Callable = math.sqrt
) -> KeyPolynomials:
    """Key polynomials for the selected k-branch.

    The physical branch takes k = -(c7 + 2 c3 c8) - 2 sqrt(c8 c9), for which
    pi(z) = c4 + c5 z - [(sqrt(c9) + c3 sqrt(c8)) z - sqrt(c8)] and
    tau' = -2 c3 - 2 (sqrt(c9) + c3 sqrt(c8)).  The alternate branch flips
    the sign in front of sqrt(c8 c9); it is computed for auditability and
    always flagged non-physical.  Raises NuConditionError when the physical
    branch has tau' >= 0.
    """
    c = derive_constants(inp, sqrt=sqrt)
    if branch == "physical":
        slope = c.sqrt_c9 + inp.c3 * c.sqrt_c8
        k = -(c.c7 + 2 * inp.c3 * c.c8) - 2 * c.sqrt_c8 * c.sqrt_c9
    elif branch == "alternate":
        slope = c.sqrt_c9 - inp.c3 * c.sqrt_c8
        k = -(c.c7 + 2 * inp.c3 * c.c8) + 2 * c.sqrt_c8 * c.sqrt_c9
    else:
        raise DomainError(f"branch must be 'physical' or 'alternate', got {branch!r}")

    def pi(z, _c=c, _slope=slope):
        return _c.c4 + _c.c5 * z - (_slope * z - _c.sqrt_c8)

    def tau(z, _inp=inp, _c=c, _slope=slope):
        return 1 - (_inp.c2 - 2 * _c.c5) * z - 2 * (_slope * z - _c.sqrt_c8)

    tau_prime = -2 * inp.c3 - 2 * slope
    if branch == "physical" and not tau_prime < 0:
        raise NuConditionError(f"NU negativity condition violated: tau' = {tau_prime}")
    return KeyPolynomials(
        pi=pi, tau=tau, k=k, tau_prime=tau_prime, branch=branch,
        physical=(branch == "physical"),
    )


def energy_equation_residual(inp: NuInput, n: int, sqrt: Callable = math.sqrt) -> float:
    """Left-hand side of the quantization condition; zero at an eigenvalue.

        (c2 - c3) n + c3 n^2 - (2n+1) c5 + (2n+1)(sqrt(c9) + c3 sqrt(c8))
        + c7 + 2 c3 c8 + 2 sqrt(c8 c9)
    """
    if n < 0 or n != int(n):
        raise DomainError(f"n must be a non-negative integer, got {n}")
    c = derive_constants(inp, sqrt=sqrt)
    return (
        (inp.c2 - inp.c3) * n
        + inp.c3 * n**2
        - (2 * n + 1) * c.c5
        + (2 * n + 1) * (c.sqrt_c9 + inp.c3 * c.sqrt_c8)
        + c.c7
        + 2 * inp.c3 * c.c8
        + 2 * c.sqrt_c8 * c.sqrt_c9
    )


def morse_nu_input(beta1: float, beta2: float, eps: float, delta: float) -> NuInput:
    """Instantiation of the generalized equation for the deformed Morse problem."""
    return NuInput(c1=1.0, c2=delta, c3=delta, A=beta1, B=beta2, C=eps**2)
