import math
import os
from pathlib import Path

import numpy as np
import pytest

from crosscheck.residuals import state_shape
from crosscheck.series import SeriesDivergenceError, hyp3f2
from qmorse import builtin
from qmorse.potential import MassModel, PotentialParams

# the subprocesses the tests start (python -m qmorse.cli, the scripts) import
# the same tree as the tests, wherever pytest runs from
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]))


@pytest.fixture
def h2():
    return builtin("H2")


@pytest.fixture
def h2_ref():
    return builtin("H2-ref")


@pytest.fixture
def co():
    return builtin("CO")


@pytest.fixture
def h2_params(h2):
    return PotentialParams.from_molecule(h2, 1.0)


@pytest.fixture
def h2_pdm(h2):
    return PotentialParams.from_molecule(h2, 1.0), MassModel.from_molecule(h2, 0.3)


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)


def _series_log_norm(eps, xi, delta, alpha, n, max_terms=10000):
    """log of the paper's printed series normalization constant, as (value, note).

    The printed form, evaluated term by term with every magnitude in the log
    domain (its prefactor alone overflows a float for deep wells):

        N^-2 = Gamma(2 eps + 1) Gamma(xi + 2) / (alpha delta^eps Gamma(n))
               sum_p (-1)^p Gamma(n + p) (n + 1 + 2 eps + xi)_p
                     / (p! (p + 2 eps) Gamma(p + 2 eps + xi + 2))
                     3F2(p + 2 eps, -n, n + 2 eps + xi + 1; p + 2 eps + xi + 2, 1 + 2 eps; 1)

    value is None, with the reason in note, where the form gives no real
    constant: Gamma(n) makes n = 0 ill-defined.
    """
    if n == 0:
        return None, "series constant undefined at n = 0 (Gamma(0))"
    lg = math.lgamma
    prefactor = (lg(2.0 * eps + 1.0) + lg(xi + 2.0) - math.log(alpha)
                 - eps * math.log(delta) - lg(n))
    top = -math.inf  # running sum = total * exp(top)
    total = 0.0
    for p in range(max_terms):
        try:
            f32 = hyp3f2(p + 2.0 * eps, -n, n + 2.0 * eps + xi + 1.0,
                         p + 2.0 * eps + xi + 2.0, 1.0 + 2.0 * eps, 1.0)
        except SeriesDivergenceError:
            return None, "inner 3F2 did not converge"
        if f32 == 0.0:
            continue
        log_term = (lg(n + p) + lg(n + 1.0 + 2.0 * eps + xi + p) - lg(n + 1.0 + 2.0 * eps + xi)
                    - lg(p + 1.0) - math.log(p + 2.0 * eps) - lg(p + 2.0 * eps + xi + 2.0)
                    + math.log(abs(f32)))
        if log_term > top:
            total *= math.exp(top - log_term)
            top = log_term
        term = (-1.0) ** p * math.copysign(math.exp(log_term - top), f32)
        total += term
        log_total = top + math.log(abs(total)) if total else -math.inf
        if p > n and log_term <= math.log(1e-16) + max(0.0, log_total):
            break
    else:
        return None, f"outer series did not settle within {max_terms} terms"
    if not total > 0.0:
        return None, f"series bracket is non-positive ({total:.3e} e^{top:.1f}); no real constant"
    return -0.5 * (prefactor + top + math.log(total)), ""


@pytest.fixture
def series_log_norm():
    """The printed series constant of one varying-mass state: (log N or None, note)."""

    def evaluate(p, mm, state):
        eps, xi, _, _ = state_shape(p, mm, state)
        return _series_log_norm(eps, xi, mm.delta, p.alpha, state.n)

    return evaluate
