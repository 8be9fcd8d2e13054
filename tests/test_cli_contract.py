"""The CLI's exit-code contract, fuzzed in-process over its argument grammar.

For any argv drawn from the grammar of ``spectrum``, ``wavefunction``,
``special-case``, ``nmax``, ``oracle-compare``, ``table3`` and
``--show-constants`` (NaN, inf, negative and huge values included): the exit
code is 0, 1, 2 or 3, stderr holds no traceback, no Python warning (numpy's
overflow and invalid-value warnings included) is issued, and a request that
exits 0 prints only finite numbers.  The one exemption is the documented
sentinel of ``nmax``: ``E_last_bound_eV`` is ``nan`` for a molecule with
n_max = 0, and only there.  ``nmax --full`` draws ``--q`` only from [-2, 10]:
it builds every bound state, and a huge ``--q`` makes that ladder grow
without limit (it exits 2 past 10^5 rows, but a request near that cap takes
a second); [-2, 10] keeps it to a few thousand rows.  For the same reason
``wavefunction --n`` stays at most 2000: its polynomial recurrence takes n
steps over the grid.

``oracle-compare`` costs up to a second and a half per request at 3000 grid
points or a 2500-level ladder, so its draws are bounded and it runs fewer
examples: ``--q`` is finite only in [-2, 2] (about 170 CO levels at most) or
one of 1e30 and 1e300 (which exit before solving), ``--grid`` is drawn from
[-2, 800], across the one-stencil floor of 25 points, or the out-of-range
3001 and 10^9, and ``--l`` from [-2, 60] or 10^6.  ``--inverse-r``, a flag
the parser does not know, must exit 2.
"""

import contextlib
import io
import json
import math
import re
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st

from qmorse import special_cases
from qmorse.cli import main

MOLECULES = ("H2", "H2-ref", "LiH", "HCl", "CO", "Xe2")

real = st.one_of(
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=-2.0, max_value=2.0),
    st.floats(),  # NaN, +-inf, huge, subnormal, -0.0
    st.sampled_from([0.3, 1.0, 1.5, 1e30, 1e300]),
).map(repr)
quantum_list = st.one_of(
    st.lists(st.integers(0, 60), min_size=1, max_size=40),
    st.lists(st.integers(-10**9, 10**9), min_size=1, max_size=40),
).map(lambda ns: ",".join(map(str, ns))) | st.sampled_from(["", ",", "x", "1.5"])
output_flags = st.fixed_dictionaries({}, optional={
    "format": st.sampled_from(["text", "csv", "json"]),
    "digits": st.one_of(st.integers(1, 25), st.integers(-2, 0)).map(str),
})


def _argv(command, flags):
    return [command, *(f"--{name}={value}" for name, value in flags.items())]


def _command(name, required, optional):
    return st.fixed_dictionaries(required, optional=optional).flatmap(
        lambda flags: output_flags.map(lambda out: _argv(name, {**flags, **out})))


spectrum = _command(
    "spectrum",
    {"molecule": st.sampled_from(MOLECULES), "n": quantum_list, "l": quantum_list},
    {"q": real, "delta": real},
)
wavefunction = _command(
    "wavefunction",
    {"molecule": st.sampled_from(MOLECULES),
     "n": st.one_of(st.integers(-2, 40), st.integers(-10**12, 2000)).map(str)},
    {"q": real, "delta": real, "l": st.integers(-2, 40).map(str), "r-min": real,
     "r-max": real, "points": st.integers(-2, 2000).map(str)},
)
special_case = _command(
    "special-case",
    {"case": st.sampled_from(sorted(special_cases.CASE_IDS)), "D": real, "mu": real, "re": real},
    {"alpha": real, "q": real, "dhat": real, "omega": real,
     "levels": st.integers(-2, 40).map(str)},
)
nmax_molecules = st.lists(st.sampled_from(MOLECULES), min_size=1, max_size=4).map(",".join)
nmax = st.one_of(
    _command("nmax", {}, {"molecules": nmax_molecules, "q": real}),
    _command("nmax", {}, {"molecules": nmax_molecules,
                          "q": st.floats(min_value=-2.0, max_value=10.0).map(repr)})
    .map(lambda argv: [*argv, "--full"]),
)
oracle_q = st.one_of(
    st.floats(min_value=-2.0, max_value=2.0),
    st.sampled_from([math.nan, math.inf, -math.inf, 1e30, 1e300, 5e-324, -0.0]),
).map(repr)
oracle_compare = _command(
    "oracle-compare",
    {"molecule": st.sampled_from(MOLECULES)},
    {"q": oracle_q, "delta": real,
     "l": st.one_of(st.integers(-2, 60), st.just(10**6)).map(str),
     "centrifugal": st.sampled_from(["exact", "pekeris", "bogus"]),
     "grid": st.one_of(st.integers(-2, 800), st.sampled_from([3001, 10**9])).map(str),
     "n-levels": st.integers(-2, 100).map(str),
     "inverse-r": st.sampled_from(["exact", "pekeris"])},
)
argvs = st.one_of(
    spectrum, wavefunction, special_case, nmax,
    output_flags.map(lambda out: _argv("table3", out)),
    st.just(["--show-constants"]),
)

_FIELD = re.compile(r"[^\s,:\[\]{}\"=]+")


def _non_finite_fields(text):
    fields = []
    for token in _FIELD.findall(text):
        try:
            value = float(token)
        except ValueError:
            continue
        if not math.isfinite(value):
            fields.append(token)
    return fields


def _nmax_sentinels(argv, text):
    """The nan cells nmax may print: E_last_bound_eV of each summary row with n_max = 0."""
    fmt = next((arg.split("=", 1)[1] for arg in argv if arg.startswith("--format=")), "text")
    summary = text.split("\n\n")[0]
    if fmt == "json":
        rows = json.loads(summary)["rows"]
    else:
        lines = [line for line in summary.splitlines() if not line.startswith("#")][1:]
        rows = [line.split("," if fmt == "csv" else None) for line in lines]
    return ["NaN" if fmt == "json" else "nan"] * sum(int(row[1]) == 0 for row in rows)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with (contextlib.redirect_stdout(out), contextlib.redirect_stderr(err),
          warnings.catch_warnings(record=True) as caught):
        warnings.simplefilter("always")  # a warning main would swallow as exit 1 is recorded
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage error
            code = exc.code
    assert [str(w.message) for w in caught] == [], argv  # it would reach a user's stderr
    assert code in (0, 1, 2, 3), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue(), argv
    if code == 0:
        allowed = _nmax_sentinels(argv, out.getvalue()) if argv[0] == "nmax" else []
        assert _non_finite_fields(out.getvalue()) == allowed, argv
    return code


@settings(deadline=None, max_examples=300)
@given(argv=argvs)
def test_exit_code_contract(argv):
    _run(argv)


@settings(deadline=None, max_examples=150)
@given(argv=oracle_compare)
def test_oracle_compare_exit_code_contract(argv):
    code = _run(argv)
    if any(arg.startswith("--inverse-r=") for arg in argv):
        assert code == 2, argv
