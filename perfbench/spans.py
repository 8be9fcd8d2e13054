"""Span recorder for the traced run (standard library only).

The recorder wraps the public functions that ``qmorse.cli`` and the layer
modules call, by replacing module attributes; nothing under ``src/`` is
edited.  Boundary calls (a request, argument parsing, formatting, oracle
configure/solve/eigensolve/compare, normalization, sampling) become spans:
name, start and end from ``perf_counter_ns``, parent span and request id,
kept in memory and written out at the end.  Hot leaf calls (closed-form
states, polynomial evaluations) are aggregated per (leaf, parent span) as a
call count and a time, so a table of thousands of states does not become
thousands of spans; their time still counts as child time of the enclosing
span, so every span's self time is its duration minus its children.
"""

from __future__ import annotations

import json
from collections import Counter
from time import perf_counter_ns

NAME, START, END, PARENT, RID, CHILD_NS, ERROR = range(7)


def module_of(name: str) -> str:
    return name.split(".", 1)[0]


class Recorder:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.rid = -1
        # (leaf name, enclosing span name) -> [calls, ns, states]
        self.leaves: dict[tuple[str, str], list[int]] = {}
        self.counts: Counter = Counter()
        self.state_depth = 0

    # -- spans ------------------------------------------------------------
    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter_ns(), 0, parent, self.rid, 0, None])
        self.stack.append(idx)
        return idx

    def _close(self, idx: int, error: str | None) -> None:
        span = self.spans[idx]
        span[END] = perf_counter_ns()
        span[ERROR] = error
        self.stack.pop()
        if span[PARENT] >= 0:
            self.spans[span[PARENT]][CHILD_NS] += span[END] - span[START]

    def call(self, name: str, fn, *args, **kwargs):
        idx = self._open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            self._close(idx, type(exc).__name__)
            raise
        self._close(idx, None)
        return result

    def request(self, rid: int, fn, *args):
        """Run one request under a root span 'cli.main' with request id rid."""
        self.rid = rid
        return self.call("cli.main", fn, *args)

    def span(self, name: str, fn, on_result=None):
        def wrapped(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if on_result is not None:
                on_result(self, args, result)
            return result

        return wrapped

    # -- aggregated leaves and counters ------------------------------------
    def leaf(self, name: str, fn, states=None):
        """Timed leaf; states(result) gives closed-form states produced (None: not a state)."""
        def wrapped(*args, **kwargs):
            is_state = states is not None
            self.state_depth += is_state
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter_ns() - t0
                self.state_depth -= is_state
                parent = self.stack[-1] if self.stack else -1
                if parent >= 0:
                    self.spans[parent][CHILD_NS] += dt
                key = (name, self.spans[parent][NAME] if parent >= 0 else "")
                agg = self.leaves.setdefault(key, [0, 0, 0])
                agg[0] += 1
                agg[1] += dt
            if is_state:
                agg[2] += states(result)
            return result

        return wrapped

    def counter(self, name: str, fn):
        """Count calls made while a closed-form state is being evaluated."""
        def wrapped(*args, **kwargs):
            if self.state_depth:
                self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    # -- persistence --------------------------------------------------------
    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "leaves": [[k[0], k[1], *v] for k, v in self.leaves.items()],
            "counts": dict(self.counts),
        }

    def merge(self, data: dict, rid: int) -> None:
        """Add a dump from another process, as request rid."""
        offset = len(self.spans)
        for span in data["spans"]:
            span = list(span)
            span[PARENT] = span[PARENT] + offset if span[PARENT] >= 0 else -1
            span[RID] = rid
            self.spans.append(span)
        for name, parent, calls, ns, states in data["leaves"]:
            agg = self.leaves.setdefault((name, parent), [0, 0, 0])
            agg[0] += calls
            agg[1] += ns
            agg[2] += states
        self.counts.update(data["counts"])

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "rid", "child_ns",
                                  "error"], **self.dump()}, handle)


def _one(_result) -> int:
    return 1


def _count_list(result) -> int:
    return len(result)


def _eigensolve_counts(rec: Recorder, args, result) -> None:
    points = len(args[0])
    vals = result[0] if isinstance(result, tuple) else result
    rec.counts["oracle.grid_points"] += points
    rec.counts["oracle.levels"] += len(vals)
    rec.counts["oracle.point_levels"] += points * len(vals)


def _emit_rows(rec: Recorder, args, _result) -> None:
    rec.counts["cli.rows"] += len(args[0]["rows"])


def _report_rows(rec: Recorder, args, _result) -> None:
    rec.counts["cli.rows"] += len(args[0].levels)


SPECTRUM_STATES = {
    "energy_pdm": _one, "energy_constant_mass": _one, "energy_pdm_params": _one,
    "energy_constant_mass_params": _one, "energy_s_wave": _one,
    "near_threshold_state": _one, "s_wave_ladder": _count_list, "n_max": None,
}

STATE_LEAVES = {f"spectrum.{name}" for name, states in SPECTRUM_STATES.items() if states}


def install(rec: Recorder) -> list[tuple[object, str, object]]:
    """Patch qmorse's module attributes; returns the originals for ``uninstall``.

    An attribute the program no longer has is skipped, so the traced run
    keeps working after a refactor; its per-layer figures then read 0.
    """
    import qmorse.cli as cli
    import qmorse.oracle as oracle
    import qmorse.pekeris as pekeris
    import qmorse.spectrum as spectrum
    import qmorse.wavefunctions as wavefunctions

    saved: list[tuple[object, str, object]] = []

    def patch(owner, attr: str, wrap) -> None:
        if hasattr(owner, attr):
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, wrap(original))

    def traced_build_parser(build_parser):
        def build():
            parser = rec.call("cli.parse", build_parser)
            parser.parse_args = rec.span("cli.parse", parser.parse_args)
            return parser

        return build

    def span(name: str, on_result=None):
        return lambda fn: rec.span(name, fn, on_result)

    def leaf(name: str, states=None):
        return lambda fn: rec.leaf(name, fn, states)

    patch(cli, "build_parser", traced_build_parser)
    patch(cli, "_emit", span("cli.emit", _emit_rows))
    for attr in ("to_json", "to_text"):
        patch(oracle.ComparisonReport, attr, span("cli.emit", _report_rows))

    for attr, states in SPECTRUM_STATES.items():
        patch(cli, attr, leaf(f"spectrum.{attr}", states))
    for owner, attrs in (
        (oracle, ("beta_static", "epsilon_pdm", "xi_value", "reduced_coefficients")),
        (wavefunctions, ("beta_static", "epsilon_pdm", "epsilon_constant_mass", "xi_value")),
    ):
        for attr in attrs:
            patch(owner, attr, leaf(f"spectrum.{attr}"))
    for owner, attr in ((spectrum, "pekeris_coefficients"), (spectrum, "composite_spq"),
                        (pekeris, "pekeris_coefficients")):
        patch(owner, attr, lambda fn: rec.counter("pekeris.calls", fn))

    patch(cli, "suggest_config", span("oracle.configure"))
    patch(cli, "solve", span("oracle.solve"))
    patch(cli, "compare", span("oracle.compare"))
    patch(oracle, "eigh_tridiagonal", span("oracle.eigensolve", _eigensolve_counts))

    patch(cli, "pdm_normalization", span("wavefunctions.normalize"))
    patch(wavefunctions, "constant_mass_log_norm", span("wavefunctions.normalize"))
    for attr in ("pdm_wavefunction", "constant_mass_wavefunction"):
        patch(cli, attr, span("wavefunctions.sample"))
    for attr in ("jacobi_poly", "genlaguerre_poly"):
        patch(wavefunctions, attr, leaf("specfun.poly"))
    patch(wavefunctions, "hyp3f2", leaf("specfun.hyp3f2"))
    return saved


def uninstall(saved: list[tuple[object, str, object]]) -> None:
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)


MODULES = ("cli", "spectrum", "oracle", "wavefunctions", "specfun")
WF_ERRORS = ("OverflowError", "MassPoleError", "NonNormalizableError")


def layer_metrics(rec: Recorder, passes: int, requests: int, wf_requests: int) -> dict:
    """Per-layer figures of a traced run of whole passes.

    Counts are per pass (they repeat exactly for a seed); times are means per
    call of the named boundary, or per request where the name says so.
    """
    spans = rec.spans
    dur = Counter()
    calls = Counter()
    self_ns = Counter()
    for span in spans:
        d = span[END] - span[START]
        dur[span[NAME]] += d
        calls[span[NAME]] += 1
        self_ns[module_of(span[NAME])] += d - span[CHILD_NS]
    leaf_ns = Counter()
    leaf_calls = Counter()
    states = 0
    state_ns = 0
    for (name, parent), (n_calls, ns, n_states) in rec.leaves.items():
        leaf_ns[name] += ns
        leaf_calls[name] += n_calls
        self_ns[module_of(name)] += ns
        if name in STATE_LEAVES:
            states += n_states
            state_ns += ns
    ladder_ns = sum(ns for (name, parent), (_, ns, _) in rec.leaves.items()
                    if parent == "cli.main" and name in (
                        "spectrum.energy_pdm_params", "spectrum.energy_constant_mass_params"))
    spectrum_ns = sum(ns for name, ns in leaf_ns.items() if module_of(name) == "spectrum")

    nested_norm_ns = 0
    errors = Counter()
    for span in spans:
        parent = spans[span[PARENT]] if span[PARENT] >= 0 else None
        if span[NAME] == "wavefunctions.normalize" and parent and parent[NAME] == \
                "wavefunctions.sample":
            nested_norm_ns += span[END] - span[START]
        if module_of(span[NAME]) == "wavefunctions" and span[ERROR] and not (
                parent and module_of(parent[NAME]) == "wavefunctions"):
            errors[span[ERROR] if span[ERROR] in WF_ERRORS else "other"] += 1

    def mean_s(name: str) -> float:
        return dur[name] / calls[name] / 1e9 if calls[name] else 0.0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    counts = rec.counts
    out = {
        "cli.parse_s": dur["cli.parse"] / requests / 1e9,
        "cli.emit_s": dur["cli.emit"] / requests / 1e9,
        "cli.self_s": sum(s[END] - s[START] - s[CHILD_NS] for s in spans
                          if s[NAME] == "cli.main") / requests / 1e9,
        "cli.rows": counts["cli.rows"] / passes,
        "spectrum.calls": states / passes,
        "spectrum.state_us": ratio(state_ns, states) / 1e3,
        "spectrum.busy_s": spectrum_ns / requests / 1e9,
        "pekeris.calls_per_state": ratio(counts["pekeris.calls"], states),
        "oracle.configure_s": mean_s("oracle.configure"),
        "oracle.solve_s": mean_s("oracle.solve"),
        "oracle.compare_s": mean_s("oracle.compare"),
        "oracle.closed_ladder_s": ratio(ladder_ns, calls["oracle.solve"]) / 1e9,
        "oracle.eigensolve_s": mean_s("oracle.eigensolve"),
        "oracle.grid_points": counts["oracle.grid_points"] / passes,
        "oracle.levels": counts["oracle.levels"] / passes,
        "oracle.point_levels": counts["oracle.point_levels"] / passes,
        "oracle.solve_ns_per_point_level": ratio(dur["oracle.eigensolve"],
                                                 counts["oracle.point_levels"]),
        "wavefunctions.normalize_s": mean_s("wavefunctions.normalize"),
        "wavefunctions.sample_s": ratio(dur["wavefunctions.sample"] - nested_norm_ns,
                                        calls["wavefunctions.sample"]) / 1e9,
        "specfun.poly_evals_per_state": ratio(leaf_calls["specfun.poly"], wf_requests),
        "specfun.hyp3f2_calls_per_state": ratio(leaf_calls["specfun.hyp3f2"], wf_requests),
    }
    for err in (*WF_ERRORS, "other"):
        out[f"wavefunctions.errors.{err}"] = errors[err] / passes
    for module in MODULES:
        out[f"self.{module}_s"] = self_ns[module] / requests / 1e9
    return out
