"""Special-function toolkit: log-Gamma ratio, Jacobi and Laguerre polynomials.

Polynomials are evaluated by stable three-term recurrences.  The recurrence
is a Python loop of n steps over the whole argument array, so its work is
bounded: past n * (points + overhead) = ``MAX_RECURRENCE_WORK`` = 2e8, about
1 s on one core of a 2-core x86-64 VM, both raise ``DomainError`` before the
loop.  A step's overhead counts as 1000 points for an array argument and 200
for a scalar.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

log_gamma = math.lgamma

#: from this x on, log_gamma_ratio uses the Stirling series (truncation error < 1e-17)
_STIRLING_X = 20.0


def log_gamma_ratio(x: float, s: float) -> float:
    """log(Gamma(x + s) / Gamma(x)) for x > 0, s >= 0.

    For large x the two lgamma values grow like x log x and their difference
    would keep only their absolute rounding error (1e-4 at x = 1e11); the
    Stirling series of the difference keeps full relative precision.
    """
    if x < _STIRLING_X:
        return log_gamma(x + s) - log_gamma(x)

    def series(t: float) -> float:
        inv2 = 1.0 / (t * t)
        return (1 / 12 - inv2 * (1 / 360 - inv2 * (1 / 1260 - inv2 * (1 / 1680 - inv2 / 1188)))) / t

    return (x - 0.5) * math.log1p(s / x) + s * math.log(x + s) - s + series(x + s) - series(x)


#: n * (points + overhead) point-steps; measured under CPython 3.11, a step costs
#: 4-6 ns per point plus an interpreter overhead of 4-7 us for an array argument
#: (about _ARRAY_STEP_POINTS points) and 0.3-1.3 us for a scalar (_SCALAR_STEP_POINTS)
MAX_RECURRENCE_WORK = 2e8
_ARRAY_STEP_POINTS = 1000
_SCALAR_STEP_POINTS = 200


def _check_work(n: int, x) -> None:
    points = np.size(x)
    overhead = _ARRAY_STEP_POINTS if np.ndim(x) else _SCALAR_STEP_POINTS
    if n * (points + overhead) > MAX_RECURRENCE_WORK:
        raise DomainError(
            f"degree {n} at {points} points exceeds the recurrence work bound "
            f"n * (points + {overhead}) <= {MAX_RECURRENCE_WORK:.0e}"
        )


def jacobi_poly(n: int, a, b, x):
    """Jacobi polynomial P_n^{(a,b)}(x) by the three-term recurrence.

    Raises ``DomainError`` before the loop past ``MAX_RECURRENCE_WORK``.
    """
    if n < 0:
        raise DomainError(f"degree must be non-negative, got {n}")
    if n == 0:
        return 1.0
    _check_work(n, x)
    p_prev = 1.0
    p_cur = 0.5 * (a - b) + (1.0 + 0.5 * (a + b)) * x
    for k in range(2, n + 1):
        c = 2 * k + a + b
        a1 = 2 * k * (k + a + b) * (c - 2)
        a2 = (c - 1) * (a * a - b * b)
        a3 = (c - 2) * (c - 1) * c
        a4 = 2 * (k + a - 1) * (k + b - 1) * c
        p_next = ((a2 + a3 * x) * p_cur - a4 * p_prev) / a1
        p_prev, p_cur = p_cur, p_next
    return p_cur


def genlaguerre_poly(n: int, a, y):
    """Generalized Laguerre polynomial L_n^{(a)}(y) by recurrence.

    Raises ``DomainError`` before the loop past ``MAX_RECURRENCE_WORK``.
    """
    if n < 0:
        raise DomainError(f"degree must be non-negative, got {n}")
    if n == 0:
        return 1.0
    _check_work(n, y)
    l_prev = 1.0
    l_cur = 1.0 + a - y
    for k in range(2, n + 1):
        l_next = ((2 * k - 1 + a - y) * l_cur - (k - 1 + a) * l_prev) / k
        l_prev, l_cur = l_cur, l_next
    return l_cur
