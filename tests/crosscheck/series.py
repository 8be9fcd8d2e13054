"""Pochhammer symbol, polynomial derivatives and the 2F1/3F2 series: cross-checks
of the ``qmorse.specfun`` recurrences and the paper's printed series constant."""

import math

from qmorse.errors import DomainError
from qmorse.specfun import genlaguerre_poly, jacobi_poly


class SeriesDivergenceError(RuntimeError):
    """A hypergeometric-type series failed to converge within its term budget."""


def pochhammer(x, p: int):
    """Rising factorial (x)_p = x (x+1) ... (x+p-1) for integer p >= 0.

    Works for float or complex x; (x)_0 = 1 exactly.
    """
    if p < 0 or p != int(p):
        raise DomainError(f"pochhammer order must be a non-negative integer, got {p}")
    result = 1.0
    for k in range(int(p)):
        result = result * (x + k)
    return result


def jacobi_poly_deriv(n: int, a, b, x, order: int = 1):
    """order-th derivative: d^k/dx^k P_n^{(a,b)} = ((n+a+b+1)_k / 2^k) P_{n-k}^{(a+k,b+k)}."""
    if order < 0:
        raise DomainError("derivative order must be non-negative")
    if n - order < 0:
        return 0.0
    factor = pochhammer(n + a + b + 1, order) / 2.0**order
    return factor * jacobi_poly(n - order, a + order, b + order, x)


def genlaguerre_poly_deriv(n: int, a, y, order: int = 1):
    """d^k/dy^k L_n^{(a)} = (-1)^k L_{n-k}^{(a+k)}."""
    if order < 0:
        raise DomainError("derivative order must be non-negative")
    if n - order < 0:
        return 0.0
    return (-1.0) ** order * genlaguerre_poly(n - order, a + order, y)


def _is_nonpositive_int(value) -> bool:
    if isinstance(value, complex):
        return value.imag == 0 and _is_nonpositive_int(value.real)
    return value <= 0 and float(value).is_integer()


def hyp2f1(a, b, c, z, tol: float = 1e-15, max_terms: int = 100000):
    """Gauss series 2F1(a, b; c; z).

    Exact finite sum when a or b is a non-positive integer; otherwise the
    series must satisfy |z| < 1 and is summed until the running term falls
    below tol relative to the partial sum.
    """
    if _is_nonpositive_int(c) and not (
        _is_nonpositive_int(a) and a >= c or _is_nonpositive_int(b) and b >= c
    ):
        raise DomainError(f"2F1 undefined for non-positive integer c={c}")
    terminating = _is_nonpositive_int(a) or _is_nonpositive_int(b)
    if not terminating and abs(z) >= 1.0:
        raise SeriesDivergenceError(f"2F1 series requires |z| < 1, got |z| = {abs(z)}")
    if terminating:
        n_stop = int(-a.real if isinstance(a, complex) else -a) if _is_nonpositive_int(a) else None
        m_stop = int(-b.real if isinstance(b, complex) else -b) if _is_nonpositive_int(b) else None
        stops = [s for s in (n_stop, m_stop) if s is not None]
        max_terms = min(stops) + 1
    total = 0.0
    term = 1.0
    for p in range(max_terms):
        total = total + term
        term = term * (a + p) * (b + p) / ((c + p) * (p + 1)) * z
        if not terminating and abs(term) <= tol * max(1.0, abs(total)):
            return total + term
    if terminating:
        return total
    raise SeriesDivergenceError(f"2F1 did not converge within {max_terms} terms")


def hyp3f2(a1, a2, a3, b1, b2, z=1.0, tol: float = 1e-15, max_terms: int = 10000):
    """Series 3F2(a1, a2, a3; b1, b2; z), finite when some a_i is a non-positive integer.

    Raises SeriesDivergenceError when a non-terminating sum fails to settle.
    """
    stops = [
        int(-a) for a in (a1, a2, a3)
        if not isinstance(a, complex) and _is_nonpositive_int(a)
    ]
    terminating = bool(stops)
    if terminating:
        max_terms = min(stops) + 1
    total = 0.0
    term = 1.0
    for p in range(max_terms):
        total = total + term
        term = term * (a1 + p) * (a2 + p) * (a3 + p) / ((b1 + p) * (b2 + p) * (p + 1)) * z
        if not terminating and abs(term) <= tol * max(1.0, abs(total)):
            return total + term
    if terminating:
        return total
    raise SeriesDivergenceError(f"3F2 did not converge within {max_terms} terms")


def jacobi_via_2f1(n: int, a, b, s):
    """Hypergeometric route P_n^{(a,b)}(1-2s) = ((a+1)_n / n!) 2F1(-n, 1+a+b+n; a+1; s)."""
    return pochhammer(a + 1, n) / math.factorial(n) * hyp2f1(-n, 1 + a + b + n, a + 1, s)
