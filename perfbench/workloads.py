"""Seeded request generators.

``generate(workload, seed)`` returns one *pass*: a list of argv lists for
``qmorse.cli``.  The benchmark repeats the pass until its time is up, so every
run measures whole passes and per-pass counts repeat exactly for a seed.
Nothing else reaches the program: relative ``--output`` paths land in the
benchmark's work directory.

Which case is in a pass is fixed by the workload's design (a stratified
grid), so the cost of a pass barely depends on the seed; the seed draws the
free parameters inside each stratum and the request order.
"""

from __future__ import annotations

import random

from reference import Well

WORKLOADS = ("cli_cold", "spectrum_tables", "oracle_verify", "wavefunction_dump")
BUILTINS = ("CO", "LiH", "H2", "HCl", "H2-ref")
FORMATS = ("text", "csv", "json")

# The command lines of the README, verbatim, plus --show-constants.
README_LINES = (
    "spectrum --molecule H2-ref --q 1 --delta 0 --n 0,5,7 --l 0,5,10",
    "table3",
    "nmax --molecules H2,LiH,HCl,CO",
    "wavefunction --molecule H2 --n 2 --delta 0.3 --format csv --output wf.csv",
    "oracle-compare --molecule H2-ref --l 10 --centrifugal exact",
    "special-case --case pt-type1 --D 2.0 --dhat 1.5 --mu 0.9 --re 1.2",
    "--show-constants",
)

SPECTRUM_DELTAS = (0.0, 0.05, 0.3, 0.6)
SPECTRUM_L_PER_TABLE = 8
ORACLE_MOLECULES = ("H2", "H2-ref", "LiH", "HCl", "CO")
ORACLE_DELTAS = (0.0, 0.05, 0.3, 0.5)
# One l per (molecule, delta) cell; every row and column covers a spread of l.
ORACLE_L = (
    (0, 3, 7, 10),
    (7, 10, 0, 3),
    (3, 7, 10, 0),
    (10, 0, 3, 7),
    (5, 9, 2, 6),
)
WAVEFUNCTION_MOLECULES = ("H2", "LiH", "HCl", "CO")
WAVEFUNCTION_DELTAS = (0.0, 0.05, 0.3, 0.6)
WAVEFUNCTION_L = (0, 5)
WAVEFUNCTION_N_MAX = 10


def _fmt(x: float) -> str:
    return repr(float(x))


def _cli_cold(rng: random.Random) -> list[list[str]]:
    lines = [line.split() for line in README_LINES]
    rng.shuffle(lines)
    return lines


def _spectrum_tables(rng: random.Random) -> list[list[str]]:
    reqs = []
    for name in BUILTINS:
        for delta in SPECTRUM_DELTAS:
            for fmt in FORMATS:
                q = round(rng.uniform(0.9, 1.1), 4)
                top = Well(name, q).n_max() + 2
                ls = sorted(rng.sample(range(31), SPECTRUM_L_PER_TABLE))
                reqs.append([
                    "spectrum", "--molecule", name, "--q", _fmt(q), "--delta", _fmt(delta),
                    "--n", ",".join(str(n) for n in range(top + 1)),
                    "--l", ",".join(str(l) for l in ls),
                    "--format", fmt, "--output", f"spectrum.{fmt}",
                ])
    for _ in range(2):
        names = rng.sample(BUILTINS, 3)
        fmt = rng.choice(FORMATS)
        q = round(rng.uniform(0.9, 1.1), 4)
        reqs.append(["nmax", "--molecules", ",".join(names), "--q", _fmt(q), "--full",
                     "--format", fmt, "--output", f"nmax.{fmt}"])
    fmt = rng.choice(FORMATS)
    reqs.append(["table3", "--format", fmt, "--output", f"table3.{fmt}"])
    rng.shuffle(reqs)
    return reqs


def _oracle_verify(rng: random.Random) -> list[list[str]]:
    reqs = []
    for name, ls in zip(ORACLE_MOLECULES, ORACLE_L):
        for delta, l in zip(ORACLE_DELTAS, ls):
            reqs.append(["oracle-compare", "--molecule", name, "--delta", _fmt(delta),
                         "--l", str(l), "--format", "json", "--output", "oracle.json"])
    rng.shuffle(reqs)
    return reqs


def _wavefunction_dump(rng: random.Random) -> list[list[str]]:
    reqs = []
    for name in WAVEFUNCTION_MOLECULES:
        for delta in WAVEFUNCTION_DELTAS:
            for n in range(WAVEFUNCTION_N_MAX + 1):
                for l in WAVEFUNCTION_L:
                    reqs.append(["wavefunction", "--molecule", name, "--delta", _fmt(delta),
                                 "--n", str(n), "--l", str(l),
                                 "--format", "csv", "--output", "wf.csv"])
    rng.shuffle(reqs)
    return reqs


_GENERATORS = {
    "cli_cold": _cli_cold,
    "spectrum_tables": _spectrum_tables,
    "oracle_verify": _oracle_verify,
    "wavefunction_dump": _wavefunction_dump,
}


def generate(workload: str, seed: int) -> list[list[str]]:
    """One pass of the workload: argv lists for ``qmorse.cli``, in request order."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"))
