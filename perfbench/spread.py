"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload NAME [--seeds 1-10] [--trace 0] [--json OUT]
    python3 perfbench/spread.py --compare FIRST.json SECOND.json

For every metric it prints the median over the seeds, the quartiles
(``statistics.quantiles(values, n=4)``), the spread (Q3 - Q1) / median and,
for end-to-end metrics, that spread as a share of the metric's bound in
BENCHMARK.json.  ``--compare`` checks that the second set's median of each
end-to-end metric is not worse than the first's by more than its bound.
Run from the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def bench_spec() -> dict:
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def run_seeds(workload: str, seeds: list[int], trace: int, seconds: int) -> list[dict]:
    results = []
    for seed in seeds:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["seed"] = seed
        results.append(result)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", file=sys.stderr, flush=True)
    return results


def summarize(results: list[dict]) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        out[name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values,
        }
    return out


def report(summary: dict, bounds: dict) -> None:
    for name, s in summary.items():
        bound = bounds.get(name)
        share = f"  spread/bound {s['spread'] / bound:.2f}" if bound else ""
        print(f"{name:40s} median {s['median']:.6g} {s['unit']}  q1 {s['q1']:.6g}  "
              f"q3 {s['q3']:.6g}  spread {s['spread']:.4f}{share}")


def compare(first: dict, second: dict, spec: dict) -> bool:
    ok = True
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        a, b = first[name]["median"], second[name]["median"]
        worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
        verdict = "ok" if worse <= bound else "WORSE"
        ok &= worse <= bound
        print(f"{name:20s} {a:.6g} -> {b:.6g}  worse by {worse:+.4f} (bound {bound})  {verdict}")
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--json", help="write the per-seed results and summary here")
    parser.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = parser.parse_args()
    spec = bench_spec()
    if args.compare:
        with open(args.compare[0]) as a, open(args.compare[1]) as b:
            return 0 if compare(json.load(a)["summary"], json.load(b)["summary"], spec) else 1
    results = run_seeds(args.workload, parse_seeds(args.seeds), args.trace, spec["run_seconds"])
    summary = summarize(results)
    report(summary, {m["name"]: m["bound"] for m in spec["end_to_end"]})
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump({"workload": args.workload, "results": results, "summary": summary},
                      handle, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
