import argparse
import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from crosscheck.nodes import node_count
from golden.replay import load
from golden.rewrite import readme_lines
from qmorse import builtin
from qmorse.cli import _Parser, _ParserExit, build_parser, main
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


SMALL_SPECTRUM = ["spectrum", "--molecule", "H2", "--n", "0", "--l", "0"]


@pytest.mark.parametrize("argv, code", [
    (["spectrum", "--molecule", "XX", "--n", "0", "--l", "0"], 2),
    (["spectrum", "--molecule", "CO", "--delta", "0.75", "--n", "5,49", "--l", "46,44",
      "--q", "3.9e180"], 1),
], ids=["unknown-molecule", "overflow"])
def test_failed_request_leaves_the_output_file_as_it_was(tmp_path, capsys, argv, code):
    target = tmp_path / "keep.txt"
    target.write_bytes(b"kept\n")
    assert run_cli([*argv, "--output", str(target)], capsys)[:2] == (code, "")
    assert target.read_bytes() == b"kept\n"


def test_shorter_rewrite_leaves_no_stale_tail(tmp_path, capsys):
    target = tmp_path / "out.txt"
    assert run_cli(["nmax", "--full", "--output", str(target)], capsys)[0] == 0
    long = target.read_bytes()
    code, out, _ = run_cli(SMALL_SPECTRUM, capsys)
    assert code == 0 and len(out) < len(long)
    assert run_cli([*SMALL_SPECTRUM, "--output", str(target)], capsys)[:2] == (0, "")
    assert target.read_bytes() == out.encode()


def test_output_write_that_fails_part_way_leaves_no_old_tail(tmp_path, capsys):
    # the file is rewritten in place, so a write cut short (here by a file-size
    # limit on the child) must still cut the file to the bytes written
    target = tmp_path / "out.txt"
    long = ["wavefunction", "--molecule", "H2", "--n", "1", "--points", "20000"]
    assert run_cli([*long, "--format", "json", "--output", str(target)], capsys)[0] == 0
    new = run_cli([*long, "--format", "csv"], capsys)[1].encode()
    limit = 1 << 16
    assert limit < len(new) < target.stat().st_size
    proc = subprocess.run(
        [sys.executable, "-c", "import resource, sys; from qmorse.cli import main; "
         f"resource.setrlimit(resource.RLIMIT_FSIZE, ({limit}, {limit})); sys.exit(main())",
         *long, "--format", "csv", "--output", str(target)], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: cannot write {target}: File too large\n"
    assert target.read_bytes() == new[:limit]


def test_output_to_a_fifo_gets_the_table(tmp_path, capsys):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    code = run_cli([*SMALL_SPECTRUM, "--output", str(fifo)], capsys)[0]
    reader.join(timeout=30)
    assert code == 0 and not reader.is_alive()
    assert received == [run_cli(SMALL_SPECTRUM, capsys)[1].encode()]


@pytest.mark.parametrize("case", ["molecule-file", "env", "non-utf8", "output", "full-output"])
def test_unreadable_or_unwritable_path_exits_2(tmp_path, capsys, monkeypatch, case):
    missing = str(tmp_path / "missing.txt")
    argv, reason = SMALL_SPECTRUM, "No such file or directory"
    if case == "molecule-file":
        argv, expected = [*argv, "--molecule-file", missing], f"cannot read {missing}"
    elif case == "env":
        monkeypatch.setenv("MORSE_MOLECULE_PATH", missing)
        expected = f"cannot read {missing}"
    elif case == "non-utf8":
        latin1 = tmp_path / "latin1.txt"
        latin1.write_bytes(b"name = H\xff\n")
        argv, expected = [*argv, "--molecule-file", str(latin1)], f"cannot read {latin1}"
        reason = "invalid start byte"
    elif case == "output":
        argv, expected = [*argv, "--output", str(tmp_path)], f"cannot write {tmp_path}"
        reason = "Is a directory"
    else:
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full")
        argv, expected = [*argv, "--output", "/dev/full"], "cannot write /dev/full"
        reason = "No space left on device"
    assert run_cli(argv, capsys) == (2, "", f"error: {expected}: {reason}\n")


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


@pytest.mark.parametrize("name, delta", [(name, delta) for name in ("H2", "LiH")
                                         for delta in ("0.3", "0.6")])
def test_wavefunction_one_point_lies_outside_the_pole(capsys, name, delta):
    # one point takes the step of two: the default range starts halfway from
    # the pole to r_e + 12/a, not at its upper end
    rows = _wavefunction_rows(["--molecule", name, "--n", "2", "--delta", delta,
                               "--points", "1"], capsys)
    mol = builtin(name)
    p = PotentialParams.from_molecule(mol, 1.0)
    pole = mass_pole_radius(MassModel.from_molecule(mol, float(delta)), p)
    r_hi = p.r_e + 12.0 / p.a
    assert pole > p.r_e - 4.0 / p.a
    assert rows.shape == (1, 3) and np.isfinite(rows).all()
    assert rows[0, 0] == pytest.approx(pole + (r_hi - pole) / 2.0, rel=5e-6)  # 6 digits


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


def test_spectrum_grid_past_the_cap_exits_2_before_building(capsys, monkeypatch):
    # spectrum prints one row per (n, l) pair: 400 x 400 asks for 160000
    import qmorse.cli as cli_mod
    import qmorse.spectrum as spectrum_mod

    def refuse(*args, **kwargs):
        raise AssertionError("built rows past the cap")

    monkeypatch.setattr(spectrum_mod, "spectrum_grid", refuse)
    values = ",".join(map(str, range(400)))
    code, out, err = run_cli(["spectrum", "--molecule", "H2", "--n", values, "--l", values], capsys)
    assert code == 2 and out == ""
    assert err == f"error: --n x --l 160000 asks for more than {cli_mod.MAX_LADDER_ROWS} rows\n"
    # the cap itself is admitted
    monkeypatch.undo()
    monkeypatch.setattr(cli_mod, "MAX_LADDER_ROWS", 6)
    argv = ["spectrum", "--molecule", "H2", "--n", "0,1,2", "--format", "json", "--l"]
    code, out, _ = run_cli([*argv, "0,1"], capsys)
    assert code == 0 and len(json.loads(out)["rows"]) == 6
    code, out, err = run_cli([*argv, "0,1,2"], capsys)
    assert code == 2 and out == "" and "--n x --l 9 asks for more than 6 rows" in err


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


#: requests whose output (over 100 kB) is more than a pipe buffers, read up to
#: their first line, and short ones whose pipe is closed before they start
CLOSED_PIPE_ARGV = [
    pytest.param(["nmax", "--full", "--q", "10", "--format", "json"], True, id="nmax"),
    pytest.param(["wavefunction", "--molecule", "H2", "--n", "1", "--points", "20000"], True,
                 id="wavefunction"),
    pytest.param(["--show-constants"], False, id="show-constants"),
    pytest.param([], False, id="bare-call-help"),
    pytest.param(["--help"], False, id="help"),
    pytest.param(["spectrum", "-h"], False, id="subcommand-help"),
]
#: the environment without PYTHONUNBUFFERED: stdout buffered, as by default
BUFFERED_ENV = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}


def _assert_closed_pipe_exits_1_silently(argv, reads_first_line, env):
    command = [sys.executable, "-m", "qmorse.cli", *argv]
    if reads_first_line:
        proc = subprocess.Popen(command, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert proc.stdout.readline()
        proc.stdout.close()
    else:  # closed first, so no output can slip into the pipe's buffer
        read_end, write_end = os.pipe()
        os.close(read_end)
        proc = subprocess.Popen(command, env=env, stdout=write_end, stderr=subprocess.PIPE)
        os.close(write_end)
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 1
    assert err == b""


@pytest.mark.parametrize("argv, reads_first_line", CLOSED_PIPE_ARGV)
def test_closed_pipe_exits_1_silently(argv, reads_first_line):
    # a reader that stops after one line (`| head -1`) closes the pipe while
    # the rest of the output (over 100 kB, more than a pipe buffers) is still
    # being written, or one that is gone before anything is written: exit 1
    # and nothing on stderr, not a "numeric failure" nor an "Exception
    # ignored" from the flush at exit.  Buffered stdout, as by default
    _assert_closed_pipe_exits_1_silently(argv, reads_first_line, BUFFERED_ENV)


@pytest.mark.parametrize("argv, reads_first_line", CLOSED_PIPE_ARGV)
def test_closed_pipe_exits_1_silently_unbuffered(argv, reads_first_line):
    # the same under unbuffered stdout (-u), whose file descriptor may take
    # only part of one write: the CLI writes on until a write raises, where
    # a write through the unbuffered text layer would drop the rest (exit 0)
    _assert_closed_pipe_exits_1_silently(argv, reads_first_line,
                                         {**os.environ, "PYTHONUNBUFFERED": "1"})


@pytest.mark.parametrize("argv", [["nmax"], ["--show-constants"], []],
                         ids=["nmax", "show-constants", "bare-call-help"])
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_full_stdout_exits_2_naming_it(argv, unbuffered):
    # a write error on stdout other than a closed pipe is reported once, as a
    # path that cannot be written, with no traceback from the flush at exit
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    env = {**BUFFERED_ENV, "PYTHONUNBUFFERED": "1"} if unbuffered else BUFFERED_ENV
    with open("/dev/full", "wb") as full:
        proc = subprocess.run([sys.executable, "-m", "qmorse.cli", *argv], env=env,
                              stdout=full, stderr=subprocess.PIPE)
    assert proc.returncode == 2
    assert proc.stderr == b"error: cannot write stdout: No space left on device\n"


def test_unbuffered_stdout_prints_what_buffered_stdout_prints():
    # the CLI writes the file descriptor itself, so a -u stdout gets the same
    # bytes, and its text layer holds nothing for the flush at exit
    argv = [sys.executable, "-m", "qmorse.cli", "nmax", "--full", "--format", "csv"]
    buffered = subprocess.run(argv, env=BUFFERED_ENV, capture_output=True)
    unbuffered = subprocess.run(argv, env={**BUFFERED_ENV, "PYTHONUNBUFFERED": "1"},
                                capture_output=True)
    assert buffered.returncode == unbuffered.returncode == 0
    assert unbuffered.stdout == buffered.stdout and unbuffered.stderr == buffered.stderr == b""


def test_what_a_caller_printed_before_main_comes_first():
    # main writes stdout's file descriptor itself, past the buffer of sys.stdout
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from qmorse.cli import main; "
         "print('first'); code = main(['--show-constants']); print('last'); sys.exit(code)"],
        env=BUFFERED_ENV, capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    lines = proc.stdout.splitlines()
    assert lines[0] == "first" and lines[-1] == "last" and len(lines) == 5


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
    (["oracle-compare", "--molecule", "H2"], (), ("scipy.linalg",)),
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
    # the report lists every matched level that its counts and maximum describe
    code, out, _ = run_cli(
        ["oracle-compare", "--molecule", "H2-ref", "--l", "0", "--grid", "1500",
         "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["max_deviation_eV"] < 1e-5
    assert payload["closed_count"] == payload["oracle_count"] == len(payload["levels"]) > 3


@pytest.mark.parametrize("extra, coordinate", [
    ([], "mapped-log"),
    (["--delta", "0.3"], "mapped-log"),
    (["--centrifugal", "exact"], "uniform"),
])
def test_oracle_compare_header_names_the_grid_coordinate(capsys, extra, coordinate):
    # only exact mode at delta = 0 keeps the uniform r grid; every other
    # problem is on a grid uniform in a map of t = ln(r - r_o)
    code, out, _ = run_cli(["oracle-compare", "--molecule", "H2", *extra], capsys)
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


def test_nmax_reads_the_molecule_file_once(tmp_path, capsys, monkeypatch):
    # one read and one parse per request: a file that changes between two
    # reads cannot give a table of mixed records
    import qmorse.cli as cli_mod

    path = tmp_path / "mols.txt"
    path.write_text("name = Fake\nD0_cm1 = 20000\na_invA = 1.5\nr0_A = 1.0\nmu_amu = 1.0\n")
    calls = []
    load = cli_mod.load_molecules
    monkeypatch.setattr(cli_mod, "load_molecules", lambda text: calls.append(text) or load(text))
    code, out, _ = run_cli(["nmax", "--molecules", "Fake,H2,Fake", "--molecule-file", str(path),
                            "--format", "json"], capsys)
    assert code == 0
    assert len(calls) == 1
    assert [row[0] for row in json.loads(out)["rows"]] == ["Fake", "H2", "Fake"]


def test_show_constants_with_a_subcommand_is_a_usage_error(tmp_path, capsys, monkeypatch):
    # the subcommand would otherwise be ignored: its unknown molecule never
    # reported and its --output never written
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(["--show-constants", "spectrum", "--molecule", "XX", "--n", "0",
                              "--l", "0", "--output", "f"], capsys)
    assert (code, out) == (2, "")
    assert [line for line in err.splitlines() if "error:" in line] == [
        "qmorse: error: --show-constants takes no subcommand, got spectrum"]
    assert not (tmp_path / "f").exists()


@pytest.mark.parametrize("argv, code, command", [
    (["--help"], 0, None), (["spectrum", "-h"], 0, "spectrum"),
    (["spectrum"], 2, "spectrum"), (["--bogus"], 2, None),
], ids=["help", "subcommand-help", "missing-flag", "unknown-flag"])
def test_help_and_usage_errors_return_from_main(capsys, argv, code, command):
    # argparse's help and exit end in main, which returns the status: no SystemExit
    parser = build_parser()
    if command is not None:
        sub = next(action for action in parser._actions
                   if isinstance(action, argparse._SubParsersAction))
        parser = sub.choices[command]
    returned, out, err = run_cli(argv, capsys)
    assert returned == code
    if code == 0:
        assert (out, err) == (parser.format_help(), "")
    else:
        assert out == "" and err.startswith(parser.format_usage())


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
    """(exit code, stdout, --output bytes, stderr) of one request, run in tmp_path."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("MORSE_MOLECULE_PATH", raising=False)
    (tmp_path / "molecules.txt").write_text(PROBE_MOLECULES)
    (tmp_path / "out").unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    written = (tmp_path / "out").read_bytes() if (tmp_path / "out").exists() else None
    return code, out.getvalue(), written, err.getvalue()


def test_every_flag_has_a_probe():
    # a flag that no probe shows to change a request is a setting nothing reads
    assert _optional_flags() == set(FLAG_PROBES)


@pytest.mark.parametrize("command, flag", sorted(FLAG_PROBES),
                         ids=[command + flag for command, flag in sorted(FLAG_PROBES)])
def test_every_flag_changes_its_request(tmp_path, monkeypatch, command, flag):
    first, second = FLAG_PROBES[command, flag]
    assert flag in first + second
    outcomes = [_probe([*PROBE_BASE[command], *extra], tmp_path, monkeypatch)
                for extra in (first, second)]
    assert outcomes[0] != outcomes[1]
    assert all(code == 0 for code, *_ in outcomes)


SPECTRUM_REST = ["--molecule", "H2", "--n", "0,1", "--l", "0"]
#: argvs that a leading subcommand sends down the fast path, and argvs that
#: take argparse's top-level pass: help, usage errors and extras included
PARSE_CORPUS = {
    **{f"readme-{i}": line.split() for i, line in enumerate(readme_lines())},
    **{f"probe-{command}{flag}-{i}": [*PROBE_BASE[command], *extra]
       for (command, flag), pair in sorted(FLAG_PROBES.items()) for i, extra in enumerate(pair)},
    "help": ["-h"],
    "subcommand-help": ["spectrum", "-h"],
    "subcommand-show-constants": ["spectrum", "--show-constants"],
    "subcommand-show-constants-extra": ["spectrum", "--show-constants", *SPECTRUM_REST],
    "unknown-flag": ["spectrum", "--bogus", "1"],
    "unknown-flag-extra": ["spectrum", "--bogus", "1", *SPECTRUM_REST],
    "ambiguous-prefix": ["spectrum", "--mol", "H2", "--n", "0", "--l", "0"],
    "equals-value": ["spectrum", "--molecule=H2", "--n", "0", "--l", "0"],
    "negative-value": ["spectrum", "--molecule", "H2", "--q", "-1", "--n", "0", "--l", "0"],
    "double-dash-inside": ["spectrum", "--molecule", "H2", "--", "--n", "0", "--l", "0"],
    "double-dash-last": ["spectrum", *SPECTRUM_REST, "--", "x"],
    "missing-required": ["spectrum"],
    "invalid-choice": ["spectra", *SPECTRUM_REST],
    "show-constants-first": ["--show-constants", "spectrum"],
    "empty": [],
    "tuple": ("spectrum", *SPECTRUM_REST),
}


def _parse_outcome(parse, argv):
    """(exit status or None, the namespace's items in order and the extras or the
    printed help, stderr) of one parse by ``parse`` on a fresh parser."""
    parser, err = build_parser(), io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            namespace, extras = parse(parser, argv)
        except _ParserExit as exc:
            return *exc.args, err.getvalue()
    return None, (list(vars(namespace).items()), extras), err.getvalue()


@pytest.mark.parametrize("argv", PARSE_CORPUS.values(), ids=list(PARSE_CORPUS))
def test_subcommand_fast_path_parses_as_the_top_level_pass(argv):
    fast = _parse_outcome(_Parser.parse_known_args, argv)
    assert fast == _parse_outcome(argparse.ArgumentParser.parse_known_args, argv)


def test_golden_requests_parse_as_the_top_level_pass():
    # every request the golden manifest replays: the benchmark's and the README's
    for argv in (request["argv"] for request in load()):
        fast = _parse_outcome(_Parser.parse_known_args, argv)
        assert fast == _parse_outcome(argparse.ArgumentParser.parse_known_args, argv), argv


def test_subcommand_request_is_parsed_once_on_its_subparser(capsys, monkeypatch):
    # a leading subcommand goes straight to its parser: the top-level parser
    # does not scan its words first
    progs = []
    parse = argparse.ArgumentParser._parse_known_args

    def recorded(self, *args, **kwargs):
        progs.append(self.prog)
        return parse(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "_parse_known_args", recorded)
    assert run_cli(["spectrum", *SPECTRUM_REST], capsys)[0] == 0
    assert progs == ["qmorse spectrum"]


@pytest.mark.parametrize("command, extra", [
    ("table3", ["--molecule-file", "molecules.txt"]),
    ("special-case", ["--molecule-file", "molecules.txt"]),
    ("oracle-compare", ["--digits", "9"]),
    ("oracle-compare", ["--format", "csv"]),
    ("oracle-compare", ["--n-levels", "1"]),
    # JSON prints every float as its shortest repr
    *((command, ["--format", "json", "--digits", "3"])
      for command in ("spectrum", "table3", "nmax", "wavefunction", "special-case")),
], ids=["table3-molecule-file", "special-case-molecule-file", "oracle-compare-digits",
        "oracle-compare-csv", "oracle-compare-n-levels", "spectrum-json-digits",
        "table3-json-digits", "nmax-json-digits", "wavefunction-json-digits",
        "special-case-json-digits"])
def test_flag_a_command_does_not_read_is_a_usage_error(tmp_path, monkeypatch, command, extra):
    code, out, written, err = _probe([*PROBE_BASE[command], *extra, "--output", "out"],
                                     tmp_path, monkeypatch)
    assert (code, out, written) == (2, "", None)
    assert all(flag in err for flag in extra if flag.startswith("--"))


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
    code, _, err = run_cli(["special-case", "--case", "non-pt", "--D", "2", "--dhat", "1",
                            "--mu", "0.9", "--re", "1.2", "--alpha=-inf"], capsys)
    assert code == 2
    assert "finite" in err


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


#: the flags each special well reads, with a value each
CASE_READS = {
    "generalized-vibrational": {"D": 2.0, "alpha": 1.1, "q": 0.9, "mu": 0.9, "re": 1.2},
    "non-pt": {"D": 2.0, "dhat": 1.5, "mu": 0.9, "re": 1.2},
    "pt-type1": {"D": 2.0, "dhat": 1.5, "mu": 0.9, "re": 1.2},
    "pt-type2": {"D": 2.0, "omega": 1.3, "alpha": 1.1, "mu": 0.9, "re": 1.2},
}
#: every flag that some special well reads
CASE_OPTIONAL = {"alpha": 1.1, "q": 0.9, "dhat": 1.5, "omega": 1.3}


def _case_argv(case, flags):
    return ["special-case", "--case", case, "--levels", "2", "--format", "json",
            *(f"--{flag}={value}" for flag, value in flags.items())]


@pytest.mark.parametrize("case, flags", sorted(CASE_READS.items()))
def test_special_case_params_echo_case_fields(capsys, case, flags):
    # the header echoes every flag the well reads, with its value
    code, out, _ = run_cli(_case_argv(case, flags), capsys)
    assert code == 0
    assert json.loads(out)["params"] == {"case": case.replace("-", "_"), **flags}


@pytest.mark.parametrize("case, flag", [
    (case, flag) for case in sorted(CASE_READS) for flag in CASE_OPTIONAL
    if flag not in CASE_READS[case]])
def test_special_case_flag_its_well_does_not_read_exits_2(capsys, case, flag):
    # a flag the well has no field for would be ignored, and hidden from the header
    argv = _case_argv(case, {**CASE_READS[case], flag: CASE_OPTIONAL[flag]})
    assert run_cli(argv, capsys) == (2, "", f"error: --case {case} does not read --{flag}\n")


@pytest.mark.parametrize("case, defaults", [
    ("generalized-vibrational", {"alpha": 1.0, "q": 1.0}), ("pt-type2", {"alpha": 1.0}),
])
def test_special_case_alpha_and_q_default_to_1(capsys, case, defaults):
    reads = {flag: value for flag, value in CASE_READS[case].items() if flag not in defaults}
    code, out, _ = run_cli(_case_argv(case, reads), capsys)
    assert code == 0
    assert json.loads(out)["params"] == {"case": case.replace("-", "_"), **reads, **defaults}


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
    code, _, err = run_cli(argv, capsys)
    assert code == 2
    assert f"argument {argv[-2]}: expected " in err
    assert ("1 to 17 significant digits" if argv[-2] == "--digits" else "positive integer") in err


@pytest.mark.parametrize("digits", ["0", "18", str(2**31)])
def test_digits_past_17_is_a_usage_error(capsys, digits):
    # 17 significant digits tell every float apart; 2**31 was a numeric
    # failure ("precision too big", exit 1) and 18 printed binary-expansion digits
    argv = ["spectrum", "--molecule", "H2", "--n", "0", "--l", "0", "--format", "csv"]
    code, out, err = run_cli([*argv, "--digits", digits], capsys)
    assert code == 2 and out == ""
    assert f"expected 1 to 17 significant digits, got '{digits}'" in err
    code, out, _ = run_cli([*argv, "--digits", "17"], capsys)
    assert code == 0 and "-4.4758133814231558" in out


def test_parser_reused_across_requests(capsys):
    # the parser is built on the first call of the process and reused; errors,
    # including argparse's own exit, leave nothing behind for later requests
    import qmorse.cli as cli_mod

    cli_mod._parser.cache_clear()
    assert run_cli(["spectrum", "--molecule", "H2"], capsys)[0] == 2
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
