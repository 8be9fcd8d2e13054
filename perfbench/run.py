"""qmorse benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The program is used from source (``src/`` on
``PYTHONPATH``); the only build step byte-compiles it.  One pass of seeded
requests (``workloads.py``) is repeated, closed loop with one client, for
about ``--seconds`` of request time: whole passes, at least ``MIN_PASSES``.
Every request's output is checked (``checks.py``).

Set-up times, and request times on every workload but ``oracle_verify``, are
scaled to a reference speed of the host (see ``reference_probe``): the speed
of a small shared VM can drift by up to a factor of two over tens of seconds,
and the scaled times follow the program, not the host.

--trace 0 reports the end-to-end metrics of BENCHMARK.json.  --trace 1 runs
the same passes for half the time untraced and half traced with the span
recorder (``spans.py``), reports the per-layer metrics and writes the spans to
``perfbench/out/``.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads  # noqa: E402

# op_tail_s is the highest of p99.9/p99/p95/p90/p75/p50 that keeps at least ten
# samples beyond it in MIN_PASSES passes.  It is fixed per workload, so a
# change that makes requests faster (more samples) still reports the same
# percentile.
TAIL_PCT = {"cli_cold": 50.0, "spectrum_tables": 99.0, "oracle_verify": 75.0,
            "wavefunction_dump": 99.0}
MIN_PASSES = {"cli_cold": 3, "spectrum_tables": 16, "oracle_verify": 2, "wavefunction_dump": 3}
SETUP_REPEATS = 2
SETUP_MIN_SECONDS = 1.0
IMPORT_REPEATS = 3
WARMUP_SECONDS = 2.0

# Reference-speed scaling.  The speed of a small shared VM (2 cores, Intel
# Xeon) drifts by up to 2x over tens of seconds, so raw times of runs made
# minutes apart spread past the bounds.  A reference probe -- a fresh
# `python -I` that imports a fixed set of standard-library modules and nothing
# of qmorse -- runs between requests at least every PROBE_EVERY_S of wall time,
# and between set-up probes.  A time t measured while the probe took r seconds
# is reported as t * REF_S / r: the time at the speed where the probe takes
# REF_S (about the usual speed of that VM).  Request times use the mean probe
# of the measured loop, each set-up time the mean of the probes just before
# and after it.  The program's cost is not in the probe, so a change to it
# shows in full. Measured on that VM, the probe tracked the drift of cold CLI
# calls and of the pure-Python workloads (their spread fell by half or more);
# oracle_verify spends its time in LAPACK, whose speed did not follow an
# interpreter-bound probe, so its request times are reported as measured.
REF_ARGV = ("-I", "-c", "import argparse, asyncio, decimal, email.mime.multipart, http.client, "
            "json, logging, unittest, xml.dom.minidom")
REF_S = 0.170
PROBE_EVERY_S = 1.0
SCALED = {"cli_cold", "spectrum_tables", "wavefunction_dump"}

END_TO_END_UNITS = {
    "setup_s": "s", "ops_per_s": "1/s", "op_p50_s": "s", "op_tail_s": "s",
    "pass_ratio": "ratio", "peak_rss_mb": "MB", "states_per_s": "1/s",
}


def quantile(values: list[float], pct: float) -> float:
    """Linear interpolation at rank pct/100 * (N + 1), as statistics.quantiles 'exclusive'."""
    data = sorted(values)
    pos = min(max(pct / 100.0 * (len(data) + 1), 1.0), float(len(data)))
    lo = int(pos)
    frac = pos - lo
    if lo >= len(data):
        return data[-1]
    return data[lo - 1] + frac * (data[lo] - data[lo - 1])


def reference_probe() -> float:
    """Seconds a fresh interpreter takes to run REF_ARGV."""
    actions = [(os.POSIX_SPAWN_OPEN, fd, os.devnull, os.O_WRONLY, 0) for fd in (1, 2)]
    t0 = perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *REF_ARGV], os.environ,
                         file_actions=actions)
    _, status, _ = os.wait4(pid, 0)
    elapsed = perf_counter() - t0
    if status != 0:
        raise RuntimeError("reference probe failed")
    return elapsed


def child_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def output_path(argv: list[str]) -> str | None:
    return argv[argv.index("--output") + 1] if "--output" in argv else None


class InProcess:
    """Requests through qmorse.cli.main in this process."""

    def __init__(self, root: str):
        sys.path.insert(0, os.path.join(root, "src"))
        import qmorse.cli

        self.cli = qmorse.cli
        self.recorder = None

    def run(self, argv: list[str], rid: int):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = perf_counter()
            if self.recorder is None:
                code = self.cli.main(argv)
            else:
                code = self.recorder.request(rid, self.cli.main, argv)
            latency = perf_counter() - t0
        return code, out.getvalue(), err.getvalue(), latency

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class ColdProcess:
    """One fresh `python -m qmorse.cli` per request, in the current directory."""

    def __init__(self, root: str):
        self.env = child_env(root)
        self.max_rss_kb = 0
        self.recorder = None
        self.span_file = os.path.abspath("spans.json")

    def run(self, argv: list[str], rid: int):
        if self.recorder is None:
            cmd = [sys.executable, "-m", "qmorse.cli", *argv]
        else:
            cmd = [sys.executable, os.path.join(HERE, "cli_child.py"), self.span_file, *argv]
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [(os.POSIX_SPAWN_OPEN, 1, "stdout.txt", flags, 0o644),
                   (os.POSIX_SPAWN_OPEN, 2, "stderr.txt", flags, 0o644)]
        t0 = perf_counter()
        pid = os.posix_spawn(sys.executable, cmd, self.env, file_actions=actions)
        _, status, usage = os.wait4(pid, 0)
        latency = perf_counter() - t0
        self.max_rss_kb = max(self.max_rss_kb, usage.ru_maxrss)
        with open("stdout.txt", encoding="utf-8") as out, open("stderr.txt", encoding="utf-8") as err:
            stdout, stderr = out.read(), err.read()
        if self.recorder is not None and os.path.exists(self.span_file):
            with open(self.span_file, encoding="utf-8") as handle:
                self.recorder.merge(json.load(handle), rid)
            os.remove(self.span_file)
        return os.waitstatus_to_exitcode(status), stdout, stderr, latency

    def peak_rss_mb(self) -> float:
        return self.max_rss_kb / 1024.0


class Segment:
    """Outcome of a measured loop of whole passes.

    `wall` holds request times as measured, `latencies` the same scaled to
    the reference speed (equal to `wall` for a workload that is not scaled),
    `probes` the seconds of every reference probe of the loop.
    """

    def __init__(self):
        self.wall: list[float] = []
        self.latencies: list[float] = []
        self.probes: list[float] = []
        self.verdicts: list[checks.Verdict] = []
        self.passes = 0

    @property
    def measured(self) -> float:
        return sum(self.latencies)

    @property
    def wall_measured(self) -> float:
        return sum(self.wall)

    @property
    def passed(self) -> int:
        return sum(1 for v in self.verdicts if v.ok)

    def scale(self, scaled: bool) -> None:
        """Scale the request times by REF_S over the mean reference probe of the loop.

        The mean, not the median: the host switches between speeds, and the
        mean probe is to REF_S as the mean request is to its time at REF_S.
        """
        factor = REF_S / statistics.fmean(self.probes) if scaled else 1.0
        self.latencies = [t * factor for t in self.wall]


def request(runner, idx: int, argv: list[str], rid: int, seen: dict):
    """Run request idx of the pass; returns (latency, verdict).

    A request's output is checked in full the first time it is seen; a repeat
    whose exit code and output bytes are unchanged reuses that verdict.
    """
    path = output_path(argv)
    if path and os.path.exists(path):
        os.remove(path)
    code, stdout, stderr, latency = runner.run(argv, rid)
    output = None
    if path and os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            output = handle.read()
    digest = hashlib.blake2b(json.dumps([code, stdout, stderr, output]).encode()).digest()
    cached = seen.get(idx)
    if cached is not None and cached[0] == digest:
        return latency, cached[1]
    verdict = checks.check(argv, code, stdout, stderr, output)
    seen[idx] = (digest, verdict)
    return latency, verdict


def warm_up(runner, requests: list[list[str]], seen: dict) -> None:
    """Unmeasured requests from the start of the pass, so caches and lazy set-up settle."""
    spent = 0.0
    for idx, argv in enumerate(requests):
        if spent >= WARMUP_SECONDS:
            break
        spent += request(runner, idx, argv, -1, seen)[0]


def measure(runner, requests: list[list[str]], seconds: float, min_passes: int,
            seen: dict, scaled: bool) -> Segment:
    """Repeat the pass for about `seconds` of request time, at least `min_passes` times.

    Whole passes only: the loop stops at the pass boundary nearest to `seconds`
    of wall time.  Reference probes run between requests; with `scaled`, the
    request times are scaled by their mean.
    """
    seg = Segment()
    last = float("-inf")
    while seg.passes < min_passes or seg.wall_measured * (1 + 0.5 / seg.passes) < seconds:
        for idx, argv in enumerate(requests):
            if perf_counter() - last >= PROBE_EVERY_S:
                seg.probes.append(reference_probe())
                last = perf_counter()
            latency, verdict = request(runner, idx, argv, len(seg.wall), seen)
            seg.wall.append(latency)
            seg.verdicts.append(verdict)
        seg.passes += 1
    seg.probes.append(reference_probe())
    seg.scale(scaled)
    return seg


def setup_times(workload: str, seed: int, root: str) -> list[float]:
    """Times from process start until the first request could be issued.

    At least SETUP_REPEATS fresh processes, and at least SETUP_MIN_SECONDS of
    them and the reference probes between them.  A run takes one batch before
    and one after its measured loop, so set-up time is sampled across the same
    stretch as the other metrics.  Each time is scaled by the mean of the
    reference probes just before and after it.
    """
    times: list[float] = []
    wall = 0.0
    before = reference_probe()
    while len(times) < SETUP_REPEATS or wall < SETUP_MIN_SECONDS:
        t0 = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload", workload,
             "--seed", str(seed)],
            env=child_env(root), stdout=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        proc.stdout.close()
        if proc.wait() != 0 or line.strip() != "ready":
            raise RuntimeError("set-up probe failed")
        after = reference_probe()
        wall += elapsed + after
        times.append(elapsed * REF_S / ((before + after) / 2))
        before = after
    return times


def import_seconds(root: str) -> dict:
    """Median incremental import times of the package layers in fresh interpreters."""
    runs = [json.loads(subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--import-probe"], env=child_env(root),
        capture_output=True, text=True, check=True).stdout) for _ in range(IMPORT_REPEATS)]
    return {key: statistics.median(r[key] for r in runs) for key in runs[0]}


def import_probe() -> None:
    import importlib

    out = {}
    for name in ("qmorse", "qmorse.oracle", "qmorse.wavefunctions", "qmorse.cli"):
        t0 = perf_counter()
        importlib.import_module(name)
        out["import." + name.removeprefix("qmorse.") + "_s"] = perf_counter() - t0
    print(json.dumps(out))


def end_to_end(seg: Segment, pct: float, setup_s: float, peak_rss_mb: float, scaled: bool
               ) -> tuple[dict, list[str]]:
    n = len(seg.latencies)
    states = sum(v.states for v in seg.verdicts if v.ok)
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": seg.passed / seg.measured,
        "op_p50_s": quantile(seg.latencies, 50.0),
        "op_tail_s": quantile(seg.latencies, pct),
        "pass_ratio": seg.passed / n,
        "peak_rss_mb": peak_rss_mb,
        "states_per_s": states / seg.measured,
    }
    notes = [
        f"op_tail_s is p{pct:g} of {n} requests ({n - int(pct / 100 * n)} beyond)",
        f"fail_ratio = {(n - seg.passed) / n:.6g} ({n - seg.passed}/{n})",
        "setup_s is scaled to the reference speed"
        + ("; so are the request times. As measured: "
           f"ops_per_s = {seg.passed / seg.wall_measured:.6g}, "
           f"op_p50_s = {quantile(seg.wall, 50.0):.6g}, "
           f"op_tail_s = {quantile(seg.wall, pct):.6g}" if scaled
           else "; request times are as measured"),
    ]
    return metrics, notes


def oracle_accuracy(seg: Segment) -> dict:
    extras = [v.extras for v in seg.verdicts if v.ok and "max_dev_eV" in v.extras]
    return {
        "oracle.max_dev_eV": max((e["max_dev_eV"] for e in extras), default=0.0),
        "oracle.dev_over_est_max": max((e["dev_over_est_max"] for e in extras), default=0.0),
    }


def run(args, root: str) -> int:
    if not os.path.isfile(os.path.join(root, "src", "qmorse", "cli.py")):
        print(f"error: {root} holds no qmorse sources (src/qmorse); run from the repository root",
              file=sys.stderr)
        return 2
    # One fixed core for this process and its children: the cores of a small
    # virtual machine can run at different speeds, and migrating between them
    # adds noise.
    with contextlib.suppress(AttributeError, OSError):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    compileall.compile_dir(os.path.join(root, "src"), quiet=1)
    compileall.compile_dir(HERE, quiet=1)
    requests = workloads.generate(args.workload, args.seed)
    scaled = args.workload in SCALED
    setup = [] if args.trace else setup_times(args.workload, args.seed, root)
    imports = import_seconds(root) if args.trace else {}

    work = os.path.join(HERE, ".work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    start_dir = os.getcwd()
    os.chdir(work)
    try:
        runner = (ColdProcess if args.workload == "cli_cold" else InProcess)(root)
        seen: dict = {}
        warm_up(runner, requests, seen)
        if not args.trace:
            segments = [measure(runner, requests, args.seconds, MIN_PASSES[args.workload], seen,
                                scaled)]
        else:
            import spans

            untraced = measure(runner, requests, args.seconds / 2, 1, seen, scaled)
            runner.recorder = spans.Recorder()
            saved = [] if args.workload == "cli_cold" else spans.install(runner.recorder)
            try:
                traced = measure(runner, requests, args.seconds / 2, 1, {}, scaled)
            finally:
                spans.uninstall(saved)
            segments = [untraced, traced]
    finally:
        os.chdir(start_dir)
        shutil.rmtree(work, ignore_errors=True)

    if not args.trace:
        setup += setup_times(args.workload, args.seed, root)
    verdicts = [v for seg in segments for v in seg.verdicts]
    speed = REF_S / statistics.fmean(r for seg in segments for r in seg.probes)
    failed = [v for v in verdicts if not v.ok]
    unexpected = [v for v in failed if v.known is None]
    known = {}
    for v in failed:
        if v.known:
            known[v.known] = known.get(v.known, 0) + 1

    if not args.trace:
        metrics, notes = end_to_end(segments[0], TAIL_PCT[args.workload],
                                    statistics.median(setup), runner.peak_rss_mb(), scaled)
        units = END_TO_END_UNITS
        metrics_out = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    else:
        wf_requests = sum(1 for argv in requests if argv[0] == "wavefunction") * traced.passes
        layers = spans.layer_metrics(runner.recorder, traced.passes, len(traced.latencies),
                                     wf_requests)
        layers.update(imports)
        layers.update(oracle_accuracy(traced))
        untraced_ops = untraced.passed / untraced.measured
        traced_ops = traced.passed / traced.measured
        layers["trace.untraced_ops_per_s"] = untraced_ops
        layers["trace.traced_ops_per_s"] = traced_ops
        layers["trace.overhead_ratio"] = 1.0 - traced_ops / untraced_ops if untraced_ops else 0.0
        layers["machine.speed_ratio"] = speed
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        trace_path = os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.json")
        runner.recorder.write(trace_path)
        notes = [f"spans written to {os.path.relpath(trace_path, root)}",
                 "per-layer times are as measured; trace.*_ops_per_s are scaled"
                 if scaled else "per-layer times are as measured"]
        metrics_out = {k: {"value": v, "unit": layer_unit(k)} for k, v in sorted(layers.items())}

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} passes="
          f"{'+'.join(str(s.passes) for s in segments)} requests={len(verdicts)} "
          f"measured_s={sum(s.wall_measured for s in segments):.3f} "
          f"speed={speed:.4f} (reference probe {REF_S:g} s / mean {REF_S / speed:.4f} s)")
    for name, entry in metrics_out.items():
        print(f"  {name} = {entry['value']:.6g} {entry['unit']}")
    if args.workload == "oracle_verify" and not args.trace:
        print(f"  levels_per_s = {metrics_out['states_per_s']['value']:.6g} 1/s "
              "(states_per_s of this workload: oracle-verified levels)")
    for note in notes:
        print(f"  {note}")
    for name, count in sorted(known.items()):
        print(f"  known defect {name}: {count} requests ({checks.KNOWN_DEFECTS[name]})")
    for v in unexpected[:5]:
        print(f"  UNEXPECTED FAILURE: {v.detail}")
    print(json.dumps({
        "correct": not unexpected,
        "attempted": len(verdicts),
        "failed": len(failed),
        "metrics": metrics_out,
    }))
    return 0


def layer_unit(name: str) -> str:
    if name.endswith("_us"):
        return "us"
    if name.endswith("_ns_per_point_level"):
        return "ns"
    if name.endswith("_eV"):
        return "eV"
    if name.endswith("_ops_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio") or name.endswith("_max"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--import-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.import_probe:
        import_probe()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_probe:
        if args.workload != "cli_cold":
            import qmorse.cli  # noqa: F401  (the in-process runner's import)
        workloads.generate(args.workload, args.seed)
        print("ready", flush=True)
        return 0
    return run(args, os.getcwd())


if __name__ == "__main__":
    sys.exit(main())
