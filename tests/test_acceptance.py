"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass line per
criterion.  Each criterion is a single test; reaching its final print means
every one of its assertions held.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from crosscheck.dense import dense_eigh
from crosscheck.ladder import energy_from_epsilon, resolve_reported_ladder
from crosscheck.nodes import node_count
from crosscheck.nu import NuInput, derive_constants, energy_equation_residual, exact_sqrt, key_polynomials, morse_nu_input
from crosscheck.residuals import transformed_residual_constant_mass, transformed_residual_pdm
from crosscheck.series import hyp2f1, hyp3f2
from qmorse import builtin
from qmorse.oracle import compare, problem, solve, suggest_config
from qmorse.pekeris import pekeris_coefficients
from qmorse.potential import MassModel, PotentialParams
from qmorse.reference import (
    AMBIGUOUS_LADDER_ENERGIES,
    REFERENCE_EXACT_H2,
    REFERENCE_LADDER,
    REFERENCE_MINUS_E,
    TABLE_MOLECULE,
    cell_matches,
)
from qmorse.special_cases import (
    GeneralizedVibrationalCase,
    PtType1Case,
    PtType2Case,
    gv_lambda,
    special_case_ladder,
)
from qmorse.spectrum import QuantumState, ladder_length, quantize, spectrum_grid
from qmorse.units import UNITS, hbar2_over_2mu
from qmorse.wavefunctions import log_norm, radial_wavefunction

RNG_SEED = 739297


def test_criterion_1_reference_table_reproduction():
    """All 36 reference cells at the printed precision, last digit +-1."""
    matched = 0
    for block, cells in REFERENCE_MINUS_E.items():
        mol = builtin(TABLE_MOLECULE[block])
        p, mm = PotentialParams.from_molecule(mol, 1.0), MassModel.from_molecule(mol)
        grid = spectrum_grid(p, mm, *np.array(list(cells)).T).raise_fault()
        for ((n, l), printed), energy in zip(cells.items(), grid.energy):
            assert cell_matches(-energy, printed), (block, n, l, -energy, printed)
            matched += 1
    assert matched == 36
    print(f"\n[criterion 1] PASS - reference energy table: {matched}/36 cells at printed precision")


def test_criterion_2_bound_state_counts_and_final_levels():
    h2 = builtin(TABLE_MOLECULE["H2"])
    co = builtin("CO")
    count_h2, edge_h2 = REFERENCE_LADDER["H2"]
    count_co, edge_co = REFERENCE_LADDER["CO"]
    edges = []
    for mol, count in ((h2, count_h2), (co, count_co)):
        p, mm = PotentialParams.from_molecule(mol, 1.0), MassModel.from_molecule(mol)
        assert ladder_length(p, mm, 0) == count
        # the formula value at index n_max, the ladder entry nearest the continuum
        edges.append(float(spectrum_grid(p, mm, count, 0).raise_fault().energy))
    e_h2, e_co = edges
    assert e_h2 == pytest.approx(edge_h2, rel=0.01)
    assert e_co == pytest.approx(edge_co, rel=0.01)

    resolved = resolve_reported_ladder()
    counts = {resolved["LiH"][0], resolved["HCl"][0]}
    assert counts == {24, 29}
    energies = sorted([resolved["LiH"][1], resolved["HCl"][1]])
    refs = sorted(AMBIGUOUS_LADDER_ENERGIES)
    for computed, ref in zip(energies, refs):
        assert computed == pytest.approx(ref, rel=0.01)
    print(
        "[criterion 2] PASS - ladder: H2 17 (E=%.4g), CO 83 (E=%.4g); "
        "assignment resolved LiH->%d (E=%.4g), HCl->%d (E=%.4g)"
        % (e_h2, e_co,
           resolved["LiH"][0], resolved["LiH"][1], resolved["HCl"][0], resolved["HCl"][1])
    )


def test_criterion_3_oracle_exactness_constant_mass():
    """Expansion-mode oracle reproduces the closed form to < 1e-5 eV, grid <= 8000."""
    worst, total = 0.0, 0
    for block in ("H2", "LiH", "CO", "HCl"):
        mol = builtin(TABLE_MOLECULE[block])
        p = PotentialParams.from_molecule(mol, 1.0)
        mm = MassModel.from_molecule(mol, 0.0)
        for l in (0, 5, 10):
            closed = [float(spectrum_grid(p, mm, n, l).raise_fault().energy) + p.v3
                      for n in range(8)]  # the literal well value, as the oracle's
            e_top = closed[7] + 0.1 * abs(closed[7] - closed[0])
            prob = problem(p, mm, l)
            cfg = suggest_config(prob, e_top=e_top)
            assert cfg.grid_points <= 8000, (block, l, cfg.grid_points)
            total += cfg.grid_points
            spectrum = solve(prob, cfg)
            for n in (0, 5, 7):
                deviation = abs(float(spectrum.eigenvalues[n]) - closed[n])
                worst = max(worst, deviation)
                assert deviation < 1e-5, (block, n, l, deviation)
    # the 12 cells fit in 650 points: 618 with each map fitted to its own
    # e_top, 823 with the map fitted to the ladder top
    assert total <= 650, total
    print(f"[criterion 3] PASS - oracle vs closed form, 36 states, worst |dE| = {worst:.2e} eV")


def test_criterion_4_pdm_continuity_and_identity():
    # (a) delta -> 0 continuity on all 36 reference states
    worst_a = 0.0
    for block, cells in REFERENCE_MINUS_E.items():
        mol = builtin(TABLE_MOLECULE[block])
        p = PotentialParams.from_molecule(mol, 1.0)
        n, l = np.array(list(cells)).T
        gap = abs(spectrum_grid(p, MassModel.from_molecule(mol, 1e-6), n, l).raise_fault().energy
                  - spectrum_grid(p, MassModel.from_molecule(mol), n, l).raise_fault().energy)
        worst_a = max(worst_a, gap.max())
        assert (gap < 1e-4).all()

    # (b) explicit bracket route vs eps-inversion identity, 1e3 random draws
    rng = np.random.default_rng(RNG_SEED)
    worst_b = 0.0
    accepted = 0
    while accepted < 1000:
        p = PotentialParams(
            d_e=rng.uniform(0.5, 12.0), a=rng.uniform(0.8, 3.0),
            r_e=rng.uniform(0.5, 2.5), q=rng.uniform(0.3, 2.0))
        mm = MassModel(m0=rng.uniform(0.3, 10.0), delta=rng.uniform(0.01, 0.9))
        state = QuantumState(int(rng.integers(0, 6)), int(rng.integers(0, 11)))
        try:
            res = spectrum_grid(p, mm, state.n, state.l).raise_fault()
        except Exception:
            continue
        if not res.bound:
            continue
        energy = float(res.energy) + p.v3  # the literal well value, as energy_from_epsilon's
        other = energy_from_epsilon(p, mm, state.l, float(res.eps))
        worst_b = max(worst_b, abs(energy - other) / max(abs(energy), 1e-30))
        accepted += 1
    assert worst_b < 1e-12

    # (c) varying-mass oracle vs closed form: all bound n of every configuration
    worst_c = 0.0
    for name in ("H2", "LiH"):
        mol = builtin(name)
        p = PotentialParams.from_molecule(mol, 1.0)
        for delta in (0.1, 0.3, 0.5):
            mm = MassModel.from_molecule(mol, delta)
            for l in (0, 5):
                closed = []
                n = 0
                while True:
                    res = spectrum_grid(p, mm, n, l).raise_fault()
                    if not res.bound:
                        break
                    closed.append(float(res.energy) + p.v3)
                    n += 1
                prob = problem(p, mm, l)
                spectrum = solve(prob, suggest_config(prob))
                report = compare(closed, spectrum)
                assert report.closed_count == report.oracle_count, (name, delta, l)
                assert not any(report.flagged), (name, delta, l)
                worst_c = max(worst_c, report.max_deviation)
                assert report.max_deviation < 1e-5, (name, delta, l, report.max_deviation)
    print(
        "[criterion 4] PASS - pdm: (a) worst delta-continuity gap "
        f"{worst_a:.2e} eV; (b) identity worst rel {worst_b:.2e}; "
        f"(c) oracle worst |dE| {worst_c:.2e} eV over 12 configurations"
    )


def test_criterion_5_pekeris_algebra():
    rng = np.random.default_rng(RNG_SEED)
    worst = 0.0
    for alpha in rng.uniform(0.1, 50.0, size=10000):
        pc = pekeris_coefficients(alpha)
        checks = (
            (pc.a0 + pc.a1 + pc.a2, 1.0),
            (pc.a1 + 2 * pc.a2, 2.0 / alpha),
            (pc.a1 / 2 + 2 * pc.a2, 3.0 / alpha**2),
            (pc.b0 + pc.b1 + pc.b2, 1.0),
            (pc.b1 + 2 * pc.b2, 1.0 / alpha),
            (pc.b1 / 2 + 2 * pc.b2, 1.0 / alpha**2),
        )
        for got, want in checks:
            rel = abs(got - want) / max(abs(want), 1e-300)
            worst = max(worst, rel)
            assert rel < 1e-12
        # the centrifugal polynomial of the confluent closed form is a0 itself
        poly = 1.0 - 3.0 / alpha + 3.0 / alpha**2
        assert abs(poly - pc.a0) <= 1e-12 * max(1.0, abs(pc.a0))
    print(f"[criterion 5] PASS - six sum rules over 1e4 alpha draws, worst rel {worst:.2e}")


def test_criterion_6_nu_machinery():
    # (i) every derived constant reproduced symbolically (exact arithmetic)
    delta, eps, xi = Fraction(1, 3), Fraction(5, 2), Fraction(7, 2)
    beta1 = Fraction(9, 4)
    beta2 = beta1 / delta + delta * (1 + 4 * eps**2 - xi**2) / 4
    inp = NuInput(c1=Fraction(1), c2=delta, c3=delta, A=beta1, B=beta2, C=eps**2)
    c = derive_constants(inp, sqrt=exact_sqrt)
    expected = {
        "c4": Fraction(0), "c5": -delta / 2, "c6": (delta**2 + 4 * beta1) / 4,
        "c7": -beta2, "c8": eps**2, "c9": delta**2 * xi**2 / 4,
        "c10": 2 * eps, "c11": xi, "c12": eps, "c13": (1 + xi) / 2,
    }
    for key, want in expected.items():
        assert getattr(c, key) == want, key

    # (ii) quantization residual < 1e-10 at the closed-form eps, 1e3 draws,
    # with tau' < 0 on every accepted solution
    rng = np.random.default_rng(RNG_SEED)
    worst = 0.0
    accepted = 0
    while accepted < 1000:
        d = rng.uniform(0.05, 0.95)
        b1 = rng.uniform(1.0, 400.0)
        b2 = rng.uniform(0.5, 2.0) * 2.0 * math.sqrt(b1)
        n = int(rng.integers(0, 6))
        qz = quantize(n, b1, b2, d)
        e = float(qz.eps)
        if qz.fault or e <= 0 or 2.0 * math.sqrt(b1) / d - 2.0 * e - (2 * n + 1) <= 0:
            continue  # no real eps or xi, or not a bound state
        morse = morse_nu_input(b1, b2, e, d)
        worst = max(worst, abs(energy_equation_residual(morse, n)))
        assert key_polynomials(morse).tau_prime < 0
        accepted += 1
    assert worst < 1e-10
    print(f"[criterion 6] PASS - constants table exact; residual worst {worst:.2e} over 1e3 draws")


def test_criterion_7_wavefunctions(series_log_norm):
    h2 = builtin("H2")
    p = PotentialParams.from_molecule(h2, 1.0)
    mm = MassModel.from_molecule(h2, 0.3)
    mm0 = MassModel.from_molecule(h2, 0.0)

    # node counts, both variants, n <= 4
    r_grid = np.linspace(0.2, 9.0, 8000)
    for n in range(5):
        assert node_count(radial_wavefunction(p, mm, QuantumState(n, 0), r_grid)[0]) == n
        assert node_count(radial_wavefunction(p, mm0, QuantumState(n, 0), r_grid)[0]) == n

    # analytic profiles satisfy the transformed equation to < 1e-6 (max norm)
    z_grid = np.linspace(0.01, 0.99, 500)
    z_pdm = np.linspace(0.01, 0.99 / mm.delta * 0.99, 500)
    worst_resid = 0.0
    for n in range(5):
        worst_resid = max(worst_resid, transformed_residual_constant_mass(p, h2.mu_amu, n, 0, z_grid))
        worst_resid = max(worst_resid, transformed_residual_pdm(p, mm, QuantumState(n, 0), z_pdm))
    assert worst_resid < 1e-6

    # oracle ground-state overlap > 0.9999 (H2, l = 0, delta = 0), on the
    # suggested grid's matrix solved densely, under its quadrature weights
    prob = problem(p, mm0, 0)
    r, weights, _, vectors, _ = dense_eigh(prob, suggest_config(prob))
    analytic, _ = radial_wavefunction(p, mm0, QuantumState(0, 0), r)
    numeric = vectors[:, 0]
    overlap = abs(np.sum(weights * numeric * analytic)) / math.sqrt(
        np.sum(weights * numeric**2) * np.sum(weights * analytic**2))
    assert overlap > 0.9999

    # beta-integral identity at one nontrivial parameter point, rel 1e-8
    from scipy.integrate import quad

    mu_e, nu_e, al, be, ga, a_arg = 2.0, 1.5, -1.0, 3.0, 2.0, 0.5
    lhs, _ = quad(lambda s: (1 - s) ** (mu_e - 1) * s ** (nu_e - 1)
                  * hyp2f1(al, be, ga, a_arg * s), 0.0, 1.0, epsabs=1e-13, epsrel=1e-12)
    rhs = (math.gamma(mu_e) * math.gamma(nu_e) / math.gamma(mu_e + nu_e)
           * hyp3f2(nu_e, al, be, mu_e + nu_e, ga, a_arg))
    assert lhs == pytest.approx(rhs, rel=1e-8)

    # series normalization constant: reported finding, not a gate
    notes = []
    for n in (0, 1, 2):
        series, note = series_log_norm(p, mm, QuantumState(n, 0))
        ratio = None if series is None else math.exp(series - log_norm(p, mm, QuantumState(n, 0)))
        notes.append(f"n={n}: ratio={ratio!r} ({note or 'series evaluated'})")
    print(
        "[criterion 7] PASS - nodes, residual %.1e, overlap %.6f, beta-integral ok; "
        "series/closed-form finding: %s" % (worst_resid, overlap, "; ".join(notes))
    )


def test_criterion_8_special_cases():
    rng = np.random.default_rng(RNG_SEED)
    from qmorse.molecules import MoleculeRecord

    # vibrational case equals the s-wave formula under identification
    worst = 0.0
    for _ in range(20):
        d_well = rng.uniform(0.5, 12.0)
        alpha = rng.uniform(0.8, 4.0)
        q = rng.uniform(0.3, 2.0)
        mu = rng.uniform(0.3, 10.0)
        r_e = rng.uniform(0.5, 2.5)
        case = GeneralizedVibrationalCase(D=d_well, alpha=alpha, q=q, mu=mu, r_e=r_e)
        mol = MoleculeRecord("synthetic", d_well / UNITS.wavenumber_to_eV, alpha / r_e, r_e, mu)
        gv, _ = special_case_ladder(case, np.arange(4))
        sw = spectrum_grid(PotentialParams.from_molecule(mol, q), MassModel.from_molecule(mol),
                           np.arange(4), 0).energy
        worst = max(worst, float(np.max(np.abs(gv - sw) / np.maximum(np.abs(sw), 1e-30))))
    assert worst < 1e-12

    # final-bound-state condition q = 1/(2 lambda) gives E = 0 exactly; the
    # well depth is chosen so lambda = 2 is exactly representable and every
    # step stays exact in floating point
    alpha0, mu0, re0 = 1.5, 0.6, 0.9
    d_exact = 4.0 * alpha0**2 * (hbar2_over_2mu(mu0) / re0**2)
    tuned = GeneralizedVibrationalCase(D=d_exact, alpha=alpha0, q=0.25, mu=mu0, r_e=re0)
    assert gv_lambda(tuned) == 2.0
    assert special_case_ladder(tuned, np.arange(1))[0][0] == 0.0
    # float-roundoff robustness of the same condition at a generic lambda
    base = GeneralizedVibrationalCase(D=4.7, alpha=1.5, q=1.0, mu=0.6, r_e=0.9)
    lam = gv_lambda(base)
    generic = GeneralizedVibrationalCase(D=4.7, alpha=1.5, q=1.0 / (2.0 * lam), mu=0.6, r_e=0.9)
    assert abs(special_case_ladder(generic, np.arange(1))[0][0]) < 1e-30

    # first PT-symmetric type: non-real energies for generic real parameters
    for _ in range(10):
        case1 = PtType1Case(D=rng.uniform(0.5, 5.0), d_hat=rng.uniform(0.5, 3.0),
                            mu=rng.uniform(0.3, 3.0), r_e=rng.uniform(0.5, 2.0))
        energy, _ = special_case_ladder(case1, np.arange(4))
        assert np.all(energy.imag != 0)

    # second PT-symmetric type: real spectrum matching its closed form
    case2 = PtType2Case(D=3.0, omega=1.4, alpha=1.1, mu=0.8, r_e=1.0)
    kappa3 = case2.r_e * math.sqrt(2.0 * case2.mu * UNITS.amu_to_eV_per_c2 * case2.D) / UNITS.hbar_c
    n = np.arange(4)
    energy, _ = special_case_ladder(case2, n)
    want = hbar2_over_2mu(case2.mu) / case2.r_e**2 * (
        0.5 * math.sqrt(case2.D) / case2.omega * kappa3 - n - 0.5) ** 2
    assert energy.dtype == np.float64
    assert energy == pytest.approx(want, rel=1e-14)
    print(f"[criterion 8] PASS - special cases; vibrational-vs-s-wave worst rel {worst:.2e}")


def test_criterion_9_pekeris_validity_characterization():
    """Exact-centrifugal oracle vs the expansion closed form for H2 (7, 10)."""
    mol = builtin(TABLE_MOLECULE["H2"])
    p = PotentialParams.from_molecule(mol, 1.0)
    mm = MassModel.from_molecule(mol, 0.0)
    closed = float(spectrum_grid(p, mm, 7, 10).raise_fault().energy) + p.v3  # literal well
    e_top = closed + 0.15
    prob = problem(p, mm, 10, "exact")
    spectrum = solve(prob, suggest_config(prob, e_top=e_top))
    deviation = abs(float(spectrum.eigenvalues[7]) - closed)
    assert 0.03 <= deviation <= 0.15, deviation
    # diagnostic: the exact-mode level should sit near the bundled
    # high-accuracy reference for this state
    exact_ref = -float(REFERENCE_EXACT_H2[(7, 10)])
    gap_to_ref = abs((float(spectrum.eigenvalues[7]) - p.v3) - exact_ref)
    print(
        f"[criterion 9] PASS - expansion validity: |exact - closed form| = {deviation:.4f} eV "
        f"(expected 0.03..0.15); exact level vs reference {gap_to_ref:.2e} eV"
    )
