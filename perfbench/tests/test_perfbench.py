"""Tests of the benchmark itself: deterministic inputs and output checks that bite.

    python3 -m pytest perfbench/tests -q
"""

import contextlib
import io
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from qmorse.cli import main as cli_main  # noqa: E402


def cli(argv):
    """(verdict, code, stdout, stderr, output) of one in-process request."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    path = run.output_path(argv)
    output = None
    if path and os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            output = handle.read()
    return checks.check(argv, code, out.getvalue(), err.getvalue(), output), code, \
        out.getvalue(), err.getvalue(), output


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic(workload):
    first = workloads.generate(workload, 7)
    assert first == workloads.generate(workload, 7)
    assert all(isinstance(a, str) for argv in first for a in argv)
    assert first != workloads.generate(workload, 8)


def test_spectrum_seed_draws_parameters():
    a = sorted(map(tuple, workloads.generate("spectrum_tables", 1)))
    b = sorted(map(tuple, workloads.generate("spectrum_tables", 2)))
    assert a != b and len(a) == len(b)


@pytest.fixture
def in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


@pytest.mark.parametrize("fmt", workloads.FORMATS)
def test_spectrum_check_rejects_wrong_energy(in_tmp, fmt):
    argv = ["spectrum", "--molecule", "LiH", "--q", "1.05", "--delta", "0.3", "--n", "0,1,2",
            "--l", "0,7", "--format", fmt, "--output", f"s.{fmt}"]
    verdict, code, out, err, output = cli(argv)
    assert verdict.ok and verdict.states == 6
    # Move one printed energy by a unit of its fourth significant digit.
    if fmt == "json":
        payload = json.loads(output)
        payload["rows"][3][3] *= 1.001
        bad = json.dumps(payload)
    else:
        lines = output.splitlines()
        sep = "," if fmt == "csv" else None
        row = lines[-2].split(sep)
        row[3] = repr(float(row[3]) * 1.001)
        lines[-2] = (sep or "  ").join(row)
        bad = "\n".join(lines)
    verdict = checks.check(argv, code, out, err, bad)
    assert not verdict.ok and verdict.known is None


def test_nmax_and_table3_checks_reject_corruption(in_tmp):
    argv = ["nmax", "--molecules", "CO,H2-ref", "--q", "0.95", "--full", "--format", "csv",
            "--output", "n.csv"]
    verdict, code, out, err, output = cli(argv)
    assert verdict.ok
    row = next(ln for ln in output.splitlines() if ln.startswith("CO,"))
    name, n_max, rest = row.split(",", 2)
    bad = output.replace(row, f"{name},{int(n_max) + 1},{rest}")
    assert not checks.check(argv, code, out, err, bad).ok

    argv = ["table3", "--format", "text", "--output", "t.txt"]
    verdict, code, out, err, output = cli(argv)
    assert verdict.ok and verdict.states == 36
    assert not checks.check(argv, code, out, err, output.replace("36/36", "35/36")).ok


def test_oracle_check_rejects_wrong_level_and_flags(in_tmp):
    argv = ["oracle-compare", "--molecule", "H2", "--delta", "0.05", "--l", "3",
            "--format", "json", "--output", "o.json"]
    verdict, code, out, err, output = cli(argv)
    assert verdict.ok and verdict.states > 10
    report = json.loads(output)
    report["levels"][2]["closed_form_eV"] += 1e-6
    assert not checks.check(argv, code, out, err, json.dumps(report)).ok
    report = json.loads(output)
    report["levels"][-1]["flagged"] = True
    verdict = checks.check(argv, code, out, err, json.dumps(report))
    assert not verdict.ok and verdict.known is None  # delta < 0.5: not the known defect


def test_wavefunction_check_rejects_wrong_nodes_and_norm(in_tmp):
    argv = ["wavefunction", "--molecule", "LiH", "--delta", "0", "--n", "3", "--l", "5",
            "--format", "csv", "--output", "wf.csv"]
    verdict, code, out, err, output = cli(argv)
    assert verdict.ok
    lines = output.splitlines()
    data = [i for i, ln in enumerate(lines) if ln and ln[0].isdigit()]

    def edit(fn):
        copy = list(lines)
        for i in data:
            r, u, psi = copy[i].split(",")
            copy[i] = ",".join([r, *fn(float(r), float(u), float(psi))])
        return "\n".join(copy)

    doubled = edit(lambda r, u, psi: (repr(2 * u), repr(2 * psi)))
    assert not checks.check(argv, code, out, err, doubled).ok
    folded = edit(lambda r, u, psi: (repr(abs(u)), repr(abs(psi))))
    assert not checks.check(argv, code, out, err, folded).ok
    assert not checks.check(argv, code, out, err, output.replace(lines[data[5]], "0.1,nan,nan")).ok


def test_known_defects_are_classified(in_tmp):
    argv = ["wavefunction", "--molecule", "H2", "--n", "2", "--delta", "0.3",
            "--format", "csv", "--output", "wf.csv"]
    verdict = cli(argv)[0]
    if not verdict.ok:
        assert verdict.known == "mass_pole"
    verdict = checks.check(argv, 1, "", "numeric failure: division by zero", None)
    assert not verdict.ok and verdict.known is None


def test_cli_cold_checks_reject_corruption(in_tmp):
    verdict, code, out, err, _ = cli(["--show-constants"])
    assert verdict.ok
    assert not checks.check(["--show-constants"], code, out.replace("1973.29", "1973.3"), err,
                            None).ok
    argv = workloads.README_LINES[0].split()
    verdict, code, out, err, _ = cli(argv)
    assert verdict.ok and verdict.states == 9
    assert not checks.check(argv, code, out.replace("4.47601", "4.47611"), err, None).ok
    argv = workloads.README_LINES[-2].split()
    verdict, code, out, err, _ = cli(argv)
    assert verdict.ok
    truncated = "".join(out.splitlines(keepends=True)[:-1])
    assert not checks.check(argv, code, truncated, err, None).ok


def test_recorder_self_time_and_uninstall():
    import qmorse.cli

    rec = spans.Recorder()
    original = qmorse.cli.energy_pdm
    saved = spans.install(rec)
    try:
        assert qmorse.cli.energy_pdm is not original
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = rec.request(0, qmorse.cli.main, [
                "spectrum", "--molecule", "CO", "--delta", "0.3", "--n", "0,1", "--l", "0,2"])
    finally:
        spans.uninstall(saved)
    assert code == 0 and qmorse.cli.energy_pdm is original
    root = rec.spans[0]
    assert root[spans.NAME] == "cli.main" and root[spans.PARENT] == -1
    children = [s for s in rec.spans if s[spans.PARENT] == 0]
    assert {s[spans.NAME] for s in children} == {"cli.parse", "cli.emit"}
    assert 0 < root[spans.CHILD_NS] < root[spans.END] - root[spans.START]
    metrics = spans.layer_metrics(rec, passes=1, requests=1, wf_requests=0)
    assert metrics["spectrum.calls"] == 4
    assert metrics["pekeris.calls_per_state"] == 4
    assert metrics["cli.rows"] == 4


def test_quantile_and_tail_percentile():
    assert run.quantile([1.0, 2.0, 3.0], 50.0) == 2.0
    assert run.quantile([1.0, 2.0, 3.0, 4.0], 50.0) == 2.5
    # Quantiles of a repeated pass do not depend on how many passes ran.
    one = [0.3, 0.1, 0.7, 0.2]
    assert run.quantile(one * 3, 75.0) == run.quantile(one * 5, 75.0)
    # The fixed tail percentile keeps at least ten samples beyond it in the fewest passes.
    for name in workloads.WORKLOADS:
        n = run.MIN_PASSES[name] * len(workloads.generate(name, 1))
        assert n * (1.0 - run.TAIL_PCT[name] / 100.0) >= 10, name



def test_scale_uses_the_mean_probe():
    seg = run.Segment()
    seg.wall = [1.0, 2.0]
    # Probes that took twice the reference time on average: the host ran at half speed.
    seg.probes = [run.REF_S, 3 * run.REF_S]
    seg.scale(True)
    assert seg.latencies == pytest.approx([0.5, 1.0])
    seg.scale(False)
    assert seg.latencies == seg.wall


def test_reference_probe_runs():
    assert 0.0 < run.reference_probe() < 30.0

def test_install_skips_missing_attributes(monkeypatch):
    import qmorse.oracle

    monkeypatch.delattr(qmorse.oracle, "eigh_tridiagonal")
    saved = spans.install(spans.Recorder())
    spans.uninstall(saved)
    assert not hasattr(qmorse.oracle, "eigh_tridiagonal")
