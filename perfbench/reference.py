"""Reference values the output checks compare against.

The closed forms are restated here from the formulas (not imported from
``qmorse``), so a change to the package's evaluator cannot make a wrong table
agree with itself.  The constants are the pinned values printed by
``qmorse --show-constants``.
"""

from __future__ import annotations

import math

AMU_TO_EV = 931.502e6
WAVENUMBER_TO_EV = 1.23985e-4
HBAR_C = 1973.29

CONSTANTS = {
    "amu_to_eV_per_c2": AMU_TO_EV,
    "hbar_c_eV_A": HBAR_C,
    "wavenumber_to_eV": WAVENUMBER_TO_EV,
}

# name -> (D0 in 1/cm, a in 1/A, r_e in A, mu in amu)
MOLECULES = {
    "CO": (90540.0, 2.2994, 1.1283, 6.8606719),
    "LiH": (20287.0, 1.1280, 1.5956, 0.8801221),
    "H2": (38266.0, 1.9426, 0.7416, 0.50391),
    "HCl": (37255.0, 1.8677, 1.2746, 0.9801045),
    "H2-ref": (4.7446 / WAVENUMBER_TO_EV, 1.9425, 0.7416, 0.50391),
}

EPS_TIE_TOL = 1e-12


class Well:
    """Well constants of one molecule at deformation q."""

    def __init__(self, name: str, q: float = 1.0):
        d0, self.a, self.r_e, self.mu = MOLECULES[name]
        self.d_e = d0 * WAVENUMBER_TO_EV
        self.q = q
        self.v1 = self.d_e
        self.v2 = 2.0 * q * self.d_e
        self.v3 = q * q * self.d_e
        self.alpha = self.a * self.r_e
        self.h22m = HBAR_C**2 / (2.0 * self.mu * AMU_TO_EV)
        self.big_k = self.h22m * self.a**2

    def n_max(self) -> int:
        """Number of normalizable s-wave levels (constant mass)."""
        if self.v2 <= 0.0:
            return 0
        s = 0.5 * self.v2 / math.sqrt(self.v1) / math.sqrt(self.big_k)
        if s - 0.5 <= EPS_TIE_TOL:
            return 0
        return int(math.floor(s - 0.5 - EPS_TIE_TOL)) + 1

    def s_wave(self, n: int) -> tuple[float, bool]:
        """(energy below dissociation, bound) of the s-wave ladder entry n."""
        kappa = 1.0 / math.sqrt(self.big_k)
        eta = self.v2 / math.sqrt(self.v1)
        energy = -(1.0 + 2.0 * n - eta * kappa) ** 2 / (4.0 * kappa**2)
        return energy, 0.5 * eta * kappa - n - 0.5 > EPS_TIE_TOL

    def state(self, n: int, l: int, delta: float) -> tuple[float, float, bool]:
        """(eps, energy below dissociation, bound) of state (n, l)."""
        al = self.alpha
        shift = self.h22m * l * (l + 1) / self.r_e**2
        a0 = 1.0 - (3.0 / al) * (1.0 - 1.0 / al)
        if delta <= 0.0:
            under = self.v1 - shift * (1.0 / al - 3.0 / al**2)
            num = self.v2 / 2.0 - shift * (2.0 / al - 3.0 / al**2)
            eps = num / math.sqrt(self.big_k * under) - (n + 0.5)
            energy = shift * a0 - self.big_k * eps**2
            return eps, energy, eps > EPS_TIE_TOL
        a1 = (2.0 / al) * (2.0 - 3.0 / al)
        a2 = -(1.0 / al) * (1.0 - 3.0 / al)
        b0 = 1.0 - (1.0 / al) * (1.5 - 1.0 / al)
        b1 = (2.0 / al) * (1.0 - 1.0 / al)
        g = l * (l + 1) / al**2
        base = 1.0 - 2.0 * b0 / al
        s_c = base + 2.0 * g * a0
        p_c = 2.0 * b1 / al - 2.0 * g * a1
        q_c = base + g * a0
        beta1 = (self.v1 + shift * a2) / self.big_k + p_c * delta + q_c * delta**2
        beta2 = (self.v2 - shift * a1) / self.big_k + s_c * delta
        root = math.sqrt(beta1)
        den = root - (n + 0.5) * delta
        bracket = (n * (n + 1) * delta - 2.0 * (n + 0.5) * root + beta2) / den
        eps = 0.5 * bracket
        energy = shift * a0 - 0.25 * self.big_k * bracket**2
        return eps, energy, eps > EPS_TIE_TOL and den > 0.0


def close(got: float, want: float, digits: int) -> bool:
    """True when got agrees with want to the printed significant digits."""
    if math.isnan(want):
        return math.isnan(got)
    scale = max(abs(want), 1e-300)
    printed = 0.51 * 10.0 ** (math.floor(math.log10(scale)) - digits + 1)
    return abs(got - want) <= printed + 1e-9 * scale + 1e-11
