import argparse
import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from crosscheck.nodes import node_count
from qmorse import builtin
from qmorse.cli import build_parser, main
from qmorse.oracle import MAX_GRID_POINTS
from qmorse.potential import MassModel, PotentialParams, mass_pole_radius
from qmorse.spectrum import bound_ladder
from qmorse.units import UNITS


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_show_constants(capsys):
    code, out, _ = run_cli(["--show-constants"], capsys)
    assert code == 0
    assert "931502000.0" in out and "1973.29" in out and "0.000123985" in out


def test_spectrum_reference_h2(capsys):
    code, out, _ = run_cli(
        ["spectrum", "--molecule", "H2-ref", "--q", "1", "--delta", "0",
         "--n", "0,5,7", "--l", "0,5,10"], capsys)
    assert code == 0
    for cell in ("4.47601", "2.22052", "1.53744", "4.2588", "0.975805"):
        assert cell in out


def test_spectrum_co_cell(capsys):
    code, out, _ = run_cli(
        ["spectrum", "--molecule", "CO", "--q", "1", "--delta", "0",
         "--n", "0", "--l", "0"], capsys)
    assert code == 0
    assert "11.0915" in out


def test_bad_delta_exit_2(capsys):
    code, _, err = run_cli(
        ["spectrum", "--molecule", "H2", "--q", "1", "--delta", "1.5",
         "--n", "0", "--l", "0"], capsys)
    assert code == 2
    assert "delta" in err


def test_unknown_molecule_exit_2(capsys):
    code, _, err = run_cli(["nmax", "--molecules", "Xe2"], capsys)
    assert code == 2
    assert "Xe2" in err


@pytest.mark.parametrize("molecules", [",", "", " , "])
def test_nmax_empty_molecule_list_exits_2(capsys, molecules):
    # a usage error, as an empty spectrum --n list is, not an empty table
    code, out, err = run_cli(["nmax", f"--molecules={molecules}"], capsys)
    assert code == 2 and out == ""
    assert "empty molecule list" in err


def test_table3_passes(capsys):
    code, out, _ = run_cli(["table3"], capsys)
    assert code == 0
    assert "36/36 cells matched" in out


def test_table3_mismatch_exits_3(capsys, monkeypatch):
    import qmorse.reference as reference_mod

    tampered = {k: dict(v) for k, v in reference_mod.REFERENCE_MINUS_E.items()}
    tampered["CO"][(0, 0)] = "11.0925"  # off by ten last-digit units
    monkeypatch.setattr(reference_mod, "REFERENCE_MINUS_E", tampered)
    code, out, _ = run_cli(["table3"], capsys)
    assert code == 3
    assert "35/36 cells matched" in out


def test_nmax_values(capsys):
    code, out, _ = run_cli(["nmax", "--digits", "4"], capsys)
    assert code == 0
    assert "17" in out and "83" in out
    assert "-0.0001231" in out or "-0.000126" in out  # H2 edge energy


def test_csv_format_and_header(capsys):
    code, out, _ = run_cli(
        ["spectrum", "--molecule", "LiH", "--n", "0,1", "--l", "0",
         "--format", "csv"], capsys)
    assert code == 0
    lines = out.splitlines()
    header_lines = [ln for ln in lines if ln.startswith("#")]
    assert any("hbar_c_eV_A" in ln for ln in header_lines)
    assert any("molecule = LiH" in ln for ln in header_lines)
    data = [ln for ln in lines if not ln.startswith("#")]
    rows = list(csv.reader(io.StringIO("\n".join(data))))
    assert rows[0] == ["n", "l", "eps_nl", "E_eV", "minus_E", "bound"]
    assert len(rows) == 3


def test_json_format(capsys):
    code, out, _ = run_cli(
        ["spectrum", "--molecule", "HCl", "--n", "0", "--l", "0",
         "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["constants"]["hbar_c_eV_A"] == 1973.29
    assert payload["params"]["molecule"] == "HCl"
    assert len(payload["rows"]) == 1


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.csv"
    code, _, _ = run_cli(
        ["spectrum", "--molecule", "H2", "--n", "0", "--l", "0",
         "--format", "csv", "--output", str(target)], capsys)
    assert code == 0
    content = target.read_bytes()
    assert b"\r" not in content  # LF line endings
    assert b"minus_E" in content


def test_deterministic_output(capsys):
    args = ["spectrum", "--molecule", "CO", "--n", "0,5", "--l", "0,5"]
    _, out1, _ = run_cli(args, capsys)
    _, out2, _ = run_cli(args, capsys)
    assert out1 == out2


def test_wavefunction_dump(capsys):
    code, out, _ = run_cli(
        ["wavefunction", "--molecule", "H2", "--n", "1", "--l", "0",
         "--points", "50", "--format", "csv"], capsys)
    assert code == 0
    data = [ln for ln in out.splitlines() if not ln.startswith("#")]
    assert data[0] == "r_A,u,psi"
    assert len(data) == 51


def test_wavefunction_pdm_dump(capsys):
    code, out, _ = run_cli(
        ["wavefunction", "--molecule", "H2", "--n", "0", "--delta", "0.3",
         "--points", "40", "--r-min", "0.2", "--format", "csv"], capsys)
    assert code == 0
    assert "normalization=closed form" in out


def _wavefunction_rows(argv, capsys):
    code, out, err = run_cli(["wavefunction", *argv, "--format", "csv"], capsys)
    assert code == 0, err
    lines = [ln for ln in out.splitlines() if not ln.startswith("#")]
    assert lines[0] == "r_A,u,psi"
    return np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])


@pytest.mark.parametrize("delta", ["0.3", "0.05"])
def test_wavefunction_default_range_h2_n2(capsys, delta):
    # the README line (delta = 0.3, mass pole at r = 0.12 A) and a virtual-pole
    # case whose printed series constant overflows a float
    rows = _wavefunction_rows(["--molecule", "H2", "--n", "2", "--delta", delta], capsys)
    assert rows.shape == (400, 3) and np.isfinite(rows).all()
    assert node_count(rows[:, 1]) == 2
    mol = builtin("H2")
    pole = mass_pole_radius(MassModel.from_molecule(mol, float(delta)),
                            PotentialParams.from_molecule(mol, 1.0))
    if pole is not None:
        assert rows[0, 0] > pole


def test_wavefunction_r_min_inside_the_pole_exits_2(capsys):
    code, out, err = run_cli(["wavefunction", "--molecule", "H2", "--n", "2", "--delta", "0.3",
                              "--r-min", "0.05"], capsys)
    assert code == 2
    assert out == "" and "mass pole" in err


@pytest.mark.parametrize("range_flags", [
    ["--r-min", "nan"],
    ["--r-max", "inf"],
    ["--r-min", "-1"],
    ["--r-min", "5", "--r-max", "1"],
], ids=["nan_r_min", "inf_r_max", "negative_r_min", "reversed"])
def test_wavefunction_bad_range_exits_2(capsys, range_flags):
    code, out, err = run_cli(["wavefunction", "--molecule", "H2", "--n", "1", *range_flags], capsys)
    assert code == 2
    assert out == "" and "0 < r_min < r_max < inf" in err


def test_wavefunction_below_delta_crossover_is_constant_mass(capsys):
    # delta below DELTA_CROSSOVER takes the constant-mass branch, as spectrum does
    tiny = _wavefunction_rows(["--molecule", "H2", "--n", "3", "--l", "5", "--delta", "1e-12"],
                              capsys)
    zero = _wavefunction_rows(["--molecule", "H2", "--n", "3", "--l", "5", "--delta", "0"], capsys)
    np.testing.assert_array_equal(tiny, zero)


def test_nmax_energies_near_the_limit_at_huge_q(capsys):
    # at q = 1e7 the s-wave levels sit 1e-4..1e-2 eV below a limit of
    # q^2 D_e = 5e14 eV; inline restatement: E_n = -K (s - n - 1/2)^2 with
    # K = hbar^2 a^2 / 2 mu and s = q sqrt(D_e / K)
    q = 1e7
    code, out, _ = run_cli(["nmax", "--molecules", "H2", "--q", repr(q), "--format", "json"],
                           capsys)
    assert code == 0
    (_, count, e_edge, e_last), = json.loads(out)["rows"]
    mol = builtin("H2")
    d_e = mol.d0_cm1 * UNITS.wavenumber_to_eV
    big_k = UNITS.hbar_c**2 / (2.0 * mol.mu_amu * UNITS.amu_to_eV_per_c2) * mol.a_invA**2
    s = q * math.sqrt(d_e / big_k)
    assert count == math.floor(s - 0.5) + 1
    assert e_edge == pytest.approx(-big_k * (s - count - 0.5) ** 2, rel=1e-6)
    assert e_last == pytest.approx(-big_k * (s - count + 0.5) ** 2, rel=1e-6)
    assert e_edge == pytest.approx(-0.01277, rel=1e-3)
    assert e_last == pytest.approx(-1.461e-4, rel=1e-3)


def test_nmax_full_past_the_row_bound_exits_2(capsys):
    # CO alone has 8.3e8 s-wave levels at q = 1e7: the ladder is refused
    # before it is built (the summary alone prints: see the next tests)
    proc = subprocess.run([sys.executable, "-m", "qmorse.cli", "nmax", "--q", "1e7", "--full"],
                          capture_output=True, text=True)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "--q" in proc.stderr and "Traceback" not in proc.stderr


def test_oracle_compare_past_the_grid_cap_exits_2():
    # CO has 8.3e8 s-wave levels at q = 1e7, more than any oracle grid has
    # points: the ladder is counted and refused before a state is built
    proc = subprocess.run(
        [sys.executable, "-m", "qmorse.cli", "oracle-compare", "--molecule", "CO", "--q", "1e7"],
        capture_output=True, text=True)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "834813753" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("q", ["1e16", "1e300"])
def test_nmax_refuses_a_count_past_float_precision(capsys, q):
    # H2 at q = 1e16 has 1.7e17 levels: past 2**53, n_max - 1 and n_max are
    # one float, and the summary printed zero energies with exit 0
    code, out, err = run_cli(["nmax", "--molecules", "H2,CO", "--q", q], capsys)
    assert code == 2 and out == ""
    assert "more than a float can index" in err


def test_nmax_full_row_bound_counts_the_printed_ladder(capsys, monkeypatch):
    # at q = 1 the four default molecules print 158 ladder rows: the bound
    # admits exactly that many and refuses one fewer
    import qmorse.cli as cli_mod

    monkeypatch.setattr(cli_mod, "MAX_LADDER_ROWS", 158)
    code, out, _ = run_cli(["nmax", "--full", "--format", "json"], capsys)
    assert code == 0
    assert len(json.loads(out.split("\n\n")[1])["rows"]) == 158
    monkeypatch.setattr(cli_mod, "MAX_LADDER_ROWS", 157)
    code, out, err = run_cli(["nmax", "--full"], capsys)
    assert code == 2 and out == "" and "158 ladder rows" in err


@pytest.mark.parametrize("argv", [
    ["special-case", "--case", "non-pt", "--D", "2.0", "--dhat", "1.5", "--mu", "0.9",
     "--re", "1.2", "--levels"],
    ["wavefunction", "--molecule", "H2", "--n", "0", "--points"],
], ids=["levels", "points"])
def test_row_flags_past_the_cap_exit_2_before_building(capsys, monkeypatch, argv):
    import qmorse.cli as cli_mod
    import qmorse.special_cases as special_cases_mod
    import qmorse.wavefunctions as wavefunctions_mod

    def refuse(*args, **kwargs):
        raise AssertionError("built rows past the cap")

    monkeypatch.setattr(special_cases_mod, "special_case_ladder", refuse)
    monkeypatch.setattr(wavefunctions_mod, "radial_wavefunction", refuse)
    for count in (cli_mod.MAX_LADDER_ROWS + 1, 10**9):
        code, out, err = run_cli([*argv, str(count)], capsys)
        assert code == 2 and out == ""
        assert f"{argv[-1]} {count} asks for more than {cli_mod.MAX_LADDER_ROWS} rows" in err
    # the cap itself is admitted
    monkeypatch.undo()
    monkeypatch.setattr(cli_mod, "MAX_LADDER_ROWS", 30)
    code, out, _ = run_cli([*argv, "30", "--format", "json"], capsys)
    assert code == 0 and len(json.loads(out)["rows"]) == 30


def test_nmax_summary_evaluates_two_states_per_molecule(capsys, monkeypatch):
    import qmorse.spectrum as spectrum_mod

    sizes = []
    evaluate = spectrum_mod.spectrum_grid

    def spy(p, mm, n, l, *args):
        sizes.append(np.broadcast(np.asarray(n), np.asarray(l)).size)
        return evaluate(p, mm, n, l, *args)

    monkeypatch.setattr(spectrum_mod, "spectrum_grid", spy)
    code, out, _ = run_cli(["nmax", "--q", "1e7"], capsys)
    assert code == 0 and "834813753" in out
    assert sum(sizes) <= 2 * 4  # the four default molecules


@pytest.mark.parametrize("q", [2.617495926584324, 1.0, 0.37, 4.2, 9.75])
def test_nmax_summary_cells_equal_their_ladder_rows(capsys, q):
    # the summary's E_edge (n = n_max) and E_last_bound (n = n_max - 1) are the
    # ladder's own cells, bit for bit, with and without --full
    argv = ["nmax", "--molecules", "H2-ref,H2,LiH,HCl,CO", "--q", repr(q), "--format", "json"]
    code, out, _ = run_cli([*argv, "--full"], capsys)
    assert code == 0
    summary, ladder = (json.loads(block)["rows"] for block in out.split("\n\n"))
    energies = {(name, n): energy for name, n, energy, _ in ladder}
    for name, count, e_edge, e_last in summary:
        assert count > 0
        assert e_edge == energies[name, count], (name, q)
        assert e_last == energies[name, count - 1], (name, q)
    code, out, _ = run_cli(argv, capsys)
    assert code == 0 and json.loads(out)["rows"] == summary


#: requests whose output (over 100 kB) is more than a pipe buffers
CLOSED_PIPE_ARGV = [
    pytest.param(["nmax", "--full", "--q", "10", "--format", "json"], id="nmax"),
    pytest.param(["wavefunction", "--molecule", "H2", "--n", "1", "--points", "20000"],
                 id="wavefunction"),
]


def _assert_closed_pipe_exits_1_silently(argv, env):
    proc = subprocess.Popen([sys.executable, "-m", "qmorse.cli", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 1
    assert first and err == b""


@pytest.mark.parametrize("argv", CLOSED_PIPE_ARGV)
def test_closed_pipe_exits_1_silently(argv):
    # a reader that stops after one line (`| head -1`) closes the pipe while
    # the rest of the output (over 100 kB, more than a pipe buffers) is still
    # being written: exit 1 and nothing on stderr, not a "numeric failure".
    # Buffered stdout, as by default
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    _assert_closed_pipe_exits_1_silently(argv, env)


@pytest.mark.parametrize("argv", CLOSED_PIPE_ARGV)
def test_closed_pipe_exits_1_silently_unbuffered(argv):
    # the same under unbuffered stdout (-u), whose raw file takes only part of
    # the one large write: the CLI writes through a BufferedWriter, which
    # raises on the rest, where the unbuffered text layer would drop it (exit 0)
    _assert_closed_pipe_exits_1_silently(argv, {**os.environ, "PYTHONUNBUFFERED": "1"})


def test_unbuffered_stdout_prints_what_buffered_stdout_prints():
    # the buffered layer over a -u stdout writes the same bytes, and leaves
    # fd 1 open for the interpreter's own flush at exit
    argv = [sys.executable, "-m", "qmorse.cli", "nmax", "--full", "--format", "csv"]
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    buffered = subprocess.run(argv, env=env, capture_output=True)
    unbuffered = subprocess.run(argv, env={**env, "PYTHONUNBUFFERED": "1"}, capture_output=True)
    assert buffered.returncode == unbuffered.returncode == 0
    assert unbuffered.stdout == buffered.stdout and unbuffered.stderr == buffered.stderr == b""


def test_wavefunction_past_the_recurrence_work_bound_exits_2(capsys):
    # a normalizable state whose recurrence would run for seconds is refused up front
    code, out, err = run_cli(["wavefunction", "--molecule", "CO", "--q", "2.26e16",
                              "--n", "580117"], capsys)
    assert code == 2 and out == ""
    assert "work bound" in err


#: prints the sorted sys.modules after importing qmorse.cli and running its argv, if any
_IMPORT_PROBE = """
import contextlib, io, json, sys
import qmorse.cli
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        assert qmorse.cli.main(sys.argv[1:]) == 0
print(json.dumps(sorted(sys.modules)))
"""
_EVALUATORS = ("qmorse.oracle", "qmorse.wavefunctions", "qmorse.special_cases", "scipy")


@pytest.mark.parametrize("argv, absent, present", [
    ([], ("numpy", "scipy"), ()),
    (["--show-constants"], ("numpy", "scipy"), ()),
    (["spectrum", "--molecule", "H2", "--n", "0", "--l", "0"], _EVALUATORS, ("numpy",)),
    (["table3"], _EVALUATORS, ("numpy",)),
    (["nmax"], _EVALUATORS, ("numpy",)),
    (["wavefunction", "--molecule", "H2", "--n", "1", "--points", "5"],
     ("qmorse.oracle", "scipy"), ("qmorse.wavefunctions",)),
    (["special-case", "--case", "non-pt", "--D", "2", "--dhat", "1.5", "--mu", "0.9",
      "--re", "1.2"], ("qmorse.oracle", "scipy"), ("qmorse.special_cases",)),
    (["oracle-compare", "--molecule", "H2", "--n-levels", "1"], (), ("scipy.linalg",)),
], ids=["import", "show-constants", "spectrum", "table3", "nmax", "wavefunction",
        "special-case", "oracle-compare"])
def test_cli_loads_only_what_its_command_runs(argv, absent, present):
    # each command imports its evaluators when it runs: only oracle-compare
    # pays for scipy.linalg, and --show-constants for no numpy at all
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, *argv],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    modules = json.loads(proc.stdout)

    def loaded(name):
        return any(m == name or m.startswith(name + ".") for m in modules)

    assert [name for name in absent if loaded(name)] == []
    assert all(map(loaded, present))


def test_case_choices_are_the_special_cases():
    # the parser spells the case ids out rather than import special_cases
    import qmorse.cli as cli_mod
    from qmorse import special_cases

    assert cli_mod.CASE_IDS == special_cases.CASE_IDS


def test_special_case_gv(capsys):
    code, out, _ = run_cli(
        ["special-case", "--case", "generalized-vibrational", "--D", "4.7446",
         "--alpha", "1.44", "--q", "1.0", "--mu", "0.50391", "--re", "0.7416",
         "--levels", "3"], capsys)
    assert code == 0
    assert "non_real" in out


def test_special_case_pt1_complex(capsys):
    code, out, _ = run_cli(
        ["special-case", "--case", "pt-type1", "--D", "2.0", "--dhat", "1.5",
         "--mu", "0.9", "--re", "1.2", "--levels", "2", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    non_real_column = payload["columns"].index("non_real")
    assert all(row[non_real_column] for row in payload["rows"])


#: finite special-case requests whose level-0 energy overflows a float
SPECIAL_CASE_OVERFLOWS = [
    ["--case", "pt-type2", "--D", "1e300", "--mu", "0.01", "--re", "9.77", "--omega", "5.67",
     "--alpha", "900"],
    ["--case", "non-pt", "--D", "1000", "--mu", "1000", "--re", "0.06", "--dhat", "5e200"],
    ["--case", "generalized-vibrational", "--D", "1000", "--mu", "1000", "--re", "0.06",
     "--alpha", "1", "--q", "1e160"],
    ["--case", "pt-type1", "--D", "1000", "--mu", "1000", "--re", "0.06", "--dhat", "5e200"],
]


@pytest.mark.parametrize("argv", SPECIAL_CASE_OVERFLOWS, ids=lambda argv: argv[1])
def test_special_case_overflow_names_the_level(capsys, argv):
    code, out, err = run_cli(["special-case", *argv], capsys)
    case_id = argv[1].replace("-", "_")
    assert code == 1 and out == ""
    assert err.startswith(f"numeric failure: {case_id} level n=0 overflows: "), err


@pytest.fixture
def strengths_calls(monkeypatch):
    """The l of every ``strengths`` call, in the modules that form the reduced problem."""
    import qmorse.oracle as oracle_mod
    import qmorse.spectrum as spectrum_mod

    calls = []
    strengths = spectrum_mod.strengths

    def spy(*args):
        calls.append(args[2])
        return strengths(*args)

    for owner in (oracle_mod, spectrum_mod):
        monkeypatch.setattr(owner, "strengths", spy)
    return calls


@pytest.mark.parametrize("delta, mode, calls", [
    ("0", "pekeris", 1), ("0", "exact", 1), ("0.3", "pekeris", 1), ("0.3", "exact", 1),
    # below DELTA_CROSSOVER the ladder takes the constant-mass strengths the
    # closed form is routed to, while pekeris-mode W keeps the real delta
    ("1e-11", "pekeris", 2),
])
def test_oracle_compare_forms_the_reduced_problem_once(capsys, strengths_calls, delta, mode,
                                                       calls):
    # one problem value holds W, B, the threshold and the closed ladder
    code, _, _ = run_cli(["oracle-compare", "--molecule", "H2", "--delta", delta, "--l", "5",
                          "--centrifugal", mode], capsys)
    assert code == 0
    assert len(strengths_calls) == calls


@pytest.mark.parametrize("argv, scans", [
    (["--molecule", "H2", "--l", "5", "--delta", "0"], 1),
    (["--molecule", "H2", "--l", "5", "--delta", "0.3"], 1),
    (["--molecule", "H2", "--l", "5", "--delta", "0.3", "--centrifugal", "exact"], 1),
    (["--molecule", "H2", "--l", "5", "--centrifugal", "exact"], 0),  # the uniform r grid
    (["--molecule", "H2-ref", "--l", "0", "--grid", "1500"], 1),
], ids=["pekeris-0", "pekeris-0.3", "exact-0.3", "exact-0", "H2-ref-grid-1500"])
def test_oracle_compare_scans_the_domain_once(capsys, monkeypatch, argv, scans):
    # one grid decision per request: suggest_config runs once, and each log-grid
    # map is fitted inside it, on the one scan that also sets the walls and N
    import qmorse.oracle as oracle_mod

    fits_seen, fits = [], []  # fits made before and after each suggest_config call
    suggest_config, fit_map = oracle_mod.suggest_config, oracle_mod._fit_map

    def spy_suggest(*args, **kwargs):
        fits_seen.append(len(fits))
        cfg = suggest_config(*args, **kwargs)
        fits_seen.append(len(fits))
        return cfg

    def spy_fit(t, need):
        fits.append(t)
        return fit_map(t, need)

    monkeypatch.setattr(oracle_mod, "suggest_config", spy_suggest)
    monkeypatch.setattr(oracle_mod, "_fit_map", spy_fit)
    code, _, _ = run_cli(["oracle-compare", *argv], capsys)
    assert code == 0
    assert fits_seen == [0, scans] and len(fits) == scans


def test_bound_ladder_forms_the_reduced_problem_once(strengths_calls):
    # the count and the energies come from one strengths result
    mol = builtin("H2")
    assert len(bound_ladder(PotentialParams.from_molecule(mol, 1.0),
                            MassModel.from_molecule(mol, 0.3), 5)) > 0
    assert strengths_calls == [5]


@pytest.mark.parametrize("q", ["-0.5", "1e-8"])
def test_oracle_compare_without_a_bound_level_says_so(capsys, q):
    # the closed form has no level to check; the message names no internal value
    code, out, err = run_cli(["oracle-compare", "--molecule", "H2", "--q", q], capsys)
    assert code == 2 and out == ""
    assert err == "error: the closed form has no bound level at l = 0\n"


def test_oracle_compare_small(capsys):
    code, out, _ = run_cli(
        ["oracle-compare", "--molecule", "H2-ref", "--l", "0", "--grid", "1500",
         "--n-levels", "3", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["max_deviation_eV"] < 1e-5
    assert len(payload["levels"]) == 3


def test_oracle_compare_n_levels_cuts_only_the_rows(capsys):
    # both counts describe the whole ladders; --n-levels only shortens the table
    code, out, _ = run_cli(
        ["oracle-compare", "--molecule", "H2-ref", "--l", "0", "--n-levels", "3",
         "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["count_mismatch"] is False
    assert payload["closed_count"] == payload["oracle_count"] > 3
    assert len(payload["levels"]) == 3


@pytest.mark.parametrize("extra, coordinate", [
    ([], "mapped-log"),
    (["--delta", "0.3"], "mapped-log"),
    (["--centrifugal", "exact"], "uniform"),
])
def test_oracle_compare_header_names_the_grid_coordinate(capsys, extra, coordinate):
    # only exact mode at delta = 0 keeps the uniform r grid; every other
    # problem is on a grid uniform in a map of t = ln(r - r_o)
    code, out, _ = run_cli(["oracle-compare", "--molecule", "H2", "--n-levels", "1", *extra], capsys)
    assert code == 0
    header = out.splitlines()[0].split()
    at = header.index(f"coordinate={coordinate}")
    assert header[at + 1].startswith("grid=")


EXACT_README_LINE = ["oracle-compare", "--molecule", "H2-ref", "--l", "10", "--centrifugal", "exact"]


@pytest.mark.parametrize("argv, grid", [
    (EXACT_README_LINE, "grid=2000 (at cap) domain="),
    (EXACT_README_LINE + ["--grid", "2000"], "grid=2000 domain="),
    (["oracle-compare", "--molecule", "H2-ref", "--l", "10"], "grid=65 domain="),
    (EXACT_README_LINE + ["--format", "json"], None),
])
def test_oracle_compare_header_marks_a_suggested_grid_at_the_cap(capsys, argv, grid):
    # the exact-mode README line sizes past the cap; a grid given by --grid or
    # sized below the cap is not marked, and the JSON report has no header
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    if grid is None:
        assert set(json.loads(out)) == {"closed_count", "oracle_count", "count_mismatch",
                                        "flag_factor", "max_deviation_eV", "levels"}
    else:
        assert grid in out.splitlines()[0]


def test_oracle_compare_grid_above_cap_exits_2(capsys):
    # rejected when the configuration is built, before any solve
    code, _, err = run_cli(
        ["oracle-compare", "--molecule", "H2-ref", "--grid", str(MAX_GRID_POINTS + 1)], capsys)
    assert code == 2
    assert "grid_points" in err


def test_molecule_file_env(tmp_path, capsys, monkeypatch):
    text = "name = Fake\nD0_cm1 = 20000\na_invA = 1.5\nr0_A = 1.0\nmu_amu = 1.0\n"
    path = tmp_path / "mols.txt"
    path.write_text(text)
    monkeypatch.setenv("MORSE_MOLECULE_PATH", str(path))
    code, out, _ = run_cli(["spectrum", "--molecule", "Fake", "--n", "0", "--l", "0"], capsys)
    assert code == 0


#: one request per subcommand that every probe below varies by one flag
PROBE_BASE = {
    "spectrum": ["spectrum", "--molecule", "H2", "--n", "0,1", "--l", "0,1"],
    "table3": ["table3"],
    "nmax": ["nmax"],
    "wavefunction": ["wavefunction", "--molecule", "H2", "--n", "1", "--points", "20"],
    "oracle-compare": ["oracle-compare", "--molecule", "H2", "--delta", "0.3"],
    "special-case": ["special-case", "--case", "generalized-vibrational", "--D", "2",
                     "--mu", "0.9", "--re", "1.2"],
}
#: the same two values of a flag on every subcommand that takes it;
#: PROBE_MOLECULES redefines H2, which every base request reads
SHARED_PROBES = {
    "--format": (["--format", "text"], ["--format", "json"]),
    "--output": ([], ["--output", "out"]),
    "--digits": (["--digits", "3"], ["--digits", "9"]),
    "--molecule-file": ([], ["--molecule-file", "molecules.txt"]),
}
PROBE_MOLECULES = "name = H2\nD0_cm1 = 20000\na_invA = 1.5\nr0_A = 1.0\nmu_amu = 1.0\n"
#: (subcommand, flag) -> two argument lists that differ only in that flag
FLAG_PROBES = {
    **{(command, flag): SHARED_PROBES[flag]
       for command, flags in [
           ("spectrum", ("--format", "--output", "--digits", "--molecule-file")),
           ("table3", ("--format", "--output", "--digits")),
           ("nmax", ("--format", "--output", "--digits", "--molecule-file")),
           ("wavefunction", ("--format", "--output", "--digits", "--molecule-file")),
           ("oracle-compare", ("--format", "--output", "--molecule-file")),
           ("special-case", ("--format", "--output", "--digits")),
       ] for flag in flags},
    ("spectrum", "--q"): ([], ["--q", "2"]),
    ("spectrum", "--delta"): ([], ["--delta", "0.3"]),
    ("nmax", "--molecules"): ([], ["--molecules", "CO"]),
    ("nmax", "--q"): ([], ["--q", "2"]),
    ("nmax", "--full"): ([], ["--full"]),
    ("wavefunction", "--q"): ([], ["--q", "2"]),
    ("wavefunction", "--delta"): ([], ["--delta", "0.3"]),
    ("wavefunction", "--l"): ([], ["--l", "3"]),
    ("wavefunction", "--r-min"): ([], ["--r-min", "0.5"]),
    ("wavefunction", "--r-max"): ([], ["--r-max", "3"]),
    ("wavefunction", "--points"): ([], ["--points", "21"]),
    ("oracle-compare", "--q"): ([], ["--q", "1.1"]),
    ("oracle-compare", "--delta"): ([], ["--delta", "0.05"]),
    ("oracle-compare", "--l"): ([], ["--l", "3"]),
    ("oracle-compare", "--centrifugal"): ([], ["--centrifugal", "exact"]),
    ("oracle-compare", "--grid"): ([], ["--grid", "200"]),
    ("oracle-compare", "--n-levels"): ([], ["--n-levels", "2"]),
    ("special-case", "--alpha"): ([], ["--alpha", "1.1"]),
    ("special-case", "--q"): ([], ["--q", "0.9"]),
    # a later --case replaces the base request's well by one that reads the flag
    ("special-case", "--dhat"): (["--case", "non-pt", "--dhat", "1.5"],
                                 ["--case", "non-pt", "--dhat", "1.2"]),
    ("special-case", "--omega"): (["--case", "pt-type2", "--omega", "1.3"],
                                  ["--case", "pt-type2", "--omega", "1.4"]),
    ("special-case", "--levels"): ([], ["--levels", "3"]),
}


def _optional_flags():
    """(subcommand, flag) for every optional, settable flag of every subparser."""
    sub = next(action for action in build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    return {(command, action.option_strings[-1])
            for command, parser in sub.choices.items() for action in parser._actions
            if action.option_strings and not action.required
            and not isinstance(action, argparse._HelpAction)}


def _probe(argv, tmp_path, monkeypatch):
    """(exit code, stdout, --output bytes) of one request, run in tmp_path."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("MORSE_MOLECULE_PATH", raising=False)
    (tmp_path / "molecules.txt").write_text(PROBE_MOLECULES)
    (tmp_path / "out").unlink(missing_ok=True)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage error
            code = exc.code
    written = (tmp_path / "out").read_bytes() if (tmp_path / "out").exists() else None
    return code, out.getvalue(), written


def test_every_flag_has_a_probe():
    # a flag that no probe shows to change a request is a setting nothing reads
    assert _optional_flags() == set(FLAG_PROBES)


@pytest.mark.parametrize("command, flag", sorted(FLAG_PROBES), ids="{0[0]}{0[1]}".format)
def test_every_flag_changes_its_request(tmp_path, monkeypatch, command, flag):
    first, second = FLAG_PROBES[command, flag]
    assert flag in first + second
    outcomes = [_probe([*PROBE_BASE[command], *extra], tmp_path, monkeypatch)
                for extra in (first, second)]
    assert outcomes[0] != outcomes[1]
    assert all(code == 0 for code, *_ in outcomes)


@pytest.mark.parametrize("command, extra", [
    ("table3", ["--molecule-file", "molecules.txt"]),
    ("special-case", ["--molecule-file", "molecules.txt"]),
    ("oracle-compare", ["--digits", "9"]),
    ("oracle-compare", ["--format", "csv"]),
], ids=["table3-molecule-file", "special-case-molecule-file", "oracle-compare-digits",
        "oracle-compare-csv"])
def test_flag_a_command_does_not_read_is_a_usage_error(tmp_path, monkeypatch, command, extra):
    code, out, written = _probe([*PROBE_BASE[command], *extra], tmp_path, monkeypatch)
    assert (code, out, written) == (2, "", None)


def test_cli_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "qmorse.cli", "table3", "--format", "csv"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "36/36" in proc.stdout


@pytest.mark.parametrize("case, missing", [
    ("non-pt", "--dhat"), ("pt-type1", "--dhat"), ("pt-type2", "--omega"),
])
def test_special_case_missing_flag_exit_2(capsys, case, missing):
    code, _, err = run_cli(
        ["special-case", "--case", case, "--D", "2.0", "--mu", "0.9", "--re", "1.2"], capsys)
    assert code == 2
    assert missing in err


@pytest.mark.parametrize("flag, value", [("--delta", "nan"), ("--q", "inf"), ("--q", "nan")])
def test_spectrum_non_finite_input_exit_2(capsys, flag, value):
    code, out, err = run_cli(
        ["spectrum", "--molecule", "H2", flag, value, "--n", "0", "--l", "0"], capsys)
    assert code == 2
    assert out == "" and flag.lstrip("-") in err


def test_spectrum_threshold_state_exits_1(capsys, monkeypatch):
    # strengths constructed so that sqrt(beta1) = (n + 1/2) delta exactly at
    # (n=3, l=0) and (n=2, l=1): the first failing row, (2, 1), is reported
    import qmorse.spectrum as spectrum_mod

    def strengths(p, mm, l):
        return np.array([3.0625, 1.5625]), np.full(2, 10.0), np.zeros(2)

    monkeypatch.setattr(spectrum_mod, "strengths", strengths)
    code, out, err = run_cli(
        ["spectrum", "--molecule", "H2", "--delta", "0.5", "--n", "0,1,2,3", "--l", "0,1"], capsys)
    assert code == 1
    assert out == ""
    assert "threshold" in err and "n=2" in err


@pytest.mark.parametrize("argv", [
    ["spectrum", "--molecule", "H2", "--q", "1e300", "--n", "0", "--l", "0"],
    ["wavefunction", "--molecule", "CO", "--q", "1e16", "--n", "2000", "--points", "50"],
], ids=["spectrum", "wavefunction"])
def test_overflow_is_numeric_failure(capsys, argv):
    # finite input whose values overflow a float: exit 1, nothing printed
    with np.errstate(all="ignore"):
        code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert out == "" and "overflow" in err


def test_special_case_non_finite_flag_is_usage_error(capsys):
    # --alpha is not a field of the non-PT well and is not echoed, but argparse
    # still rejects its non-finite value
    with pytest.raises(SystemExit) as info:
        main(["special-case", "--case", "non-pt", "--D", "2", "--dhat", "1", "--mu", "0.9",
              "--re", "1.2", "--alpha=-inf"])
    assert info.value.code == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["--molecule", "CO", "--q", "1e16", "--n", "2000"],
    ["--molecule", "CO", "--q", "1e12", "--delta", "0.01", "--n", "2000"],
    ["--molecule", "H2", "--n", "0", "--r-min", "1e-323", "--r-max", "1"],
], ids=["constant", "pdm", "subnormal-r-min"])
def test_wavefunction_overflow_leaks_no_warning(argv):
    proc = subprocess.run([sys.executable, "-m", "qmorse.cli", "wavefunction", *argv,
                           "--points", "50"], capture_output=True, text=True)
    assert proc.returncode == 1 and proc.stdout == ""
    assert "overflows" in proc.stderr and "RuntimeWarning" not in proc.stderr


def test_spectrum_overflow_prints_one_line():
    # eps**2 overflows at this q; stderr is the CLI's own line, no numpy warning
    q = "3.8764196018196883e+180"
    proc = subprocess.run(
        [sys.executable, "-m", "qmorse.cli", "spectrum", "--molecule", "CO", "--delta", "0.75",
         "--n", "5,49", "--l", "46,44", "--q", q], capture_output=True, text=True)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == f"numeric failure: energies overflow a float at q={q}\n"


@pytest.mark.parametrize("case, flags", [
    ("generalized-vibrational", {"D", "alpha", "q", "mu", "re"}),
    ("non-pt", {"D", "dhat", "mu", "re"}),
    ("pt-type1", {"D", "dhat", "mu", "re"}),
    ("pt-type2", {"D", "omega", "alpha", "mu", "re"}),
])
def test_special_case_params_echo_case_fields(capsys, case, flags):
    # every flag is given; the header names only those the well reads
    code, out, _ = run_cli(
        ["special-case", "--case", case, "--D", "2.0", "--alpha", "1.1", "--q", "0.9",
         "--mu", "0.9", "--re", "1.2", "--dhat", "1.5", "--omega", "1.3", "--levels", "2",
         "--format", "json"], capsys)
    assert code == 0
    assert set(json.loads(out)["params"]) == flags | {"case"}


def test_wavefunction_non_normalizable_exit_2(capsys):
    code, _, err = run_cli(["wavefunction", "--molecule", "H2", "--n", "40"], capsys)
    assert code == 2
    assert "normalizable" in err


@pytest.mark.parametrize("argv", [
    ["wavefunction", "--molecule", "H2", "--n", "1", "--points", "0"],
    ["spectrum", "--molecule", "H2", "--n", "0", "--l", "0", "--digits", "-3"],
    ["special-case", "--case", "non-pt", "--D", "2", "--dhat", "1", "--mu", "0.9", "--re", "1.2",
     "--levels", "-2"],
])
def test_non_positive_count_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {argv[-2]}: expected " in err
    assert ("1 to 17 significant digits" if argv[-2] == "--digits" else "positive integer") in err


@pytest.mark.parametrize("digits", ["0", "18", str(2**31)])
def test_digits_past_17_is_a_usage_error(capsys, digits):
    # 17 significant digits tell every float apart; 2**31 was a numeric
    # failure ("precision too big", exit 1) and 18 printed binary-expansion digits
    argv = ["spectrum", "--molecule", "H2", "--n", "0", "--l", "0", "--format", "csv"]
    with pytest.raises(SystemExit) as info:
        main([*argv, "--digits", digits])
    captured = capsys.readouterr()
    assert info.value.code == 2 and captured.out == ""
    assert f"expected 1 to 17 significant digits, got '{digits}'" in captured.err
    code, out, _ = run_cli([*argv, "--digits", "17"], capsys)
    assert code == 0 and "-4.4758133814231558" in out


def test_parser_reused_across_requests(capsys):
    # the parser is built on the first call of the process and reused; errors,
    # including argparse's own exit, leave nothing behind for later requests
    import qmorse.cli as cli_mod

    cli_mod._parser.cache_clear()
    with pytest.raises(SystemExit) as info:
        main(["spectrum", "--molecule", "H2"])
    assert info.value.code == 2
    capsys.readouterr()
    assert run_cli(["spectrum", "--molecule", "H2", "--delta", "1.5", "--n", "0", "--l", "0"],
                   capsys)[0] == 2
    assert run_cli(["--show-constants"], capsys)[0] == 0
    spectrum = ["spectrum", "--molecule", "CO", "--delta", "0.3", "--n", "0,3", "--l", "0,7",
                "--digits", "9"]
    wavefunction = ["wavefunction", "--molecule", "LiH", "--n", "2", "--delta", "0.05",
                    "--points", "30", "--format", "csv"]
    for argv in (spectrum, wavefunction):
        first, second = run_cli(argv, capsys), run_cli(argv, capsys)
        assert first == second and first[0] == 0
        fresh = subprocess.run([sys.executable, "-m", "qmorse.cli", *argv],
                               capture_output=True, text=True)
        assert (fresh.returncode, fresh.stdout, fresh.stderr) == first
