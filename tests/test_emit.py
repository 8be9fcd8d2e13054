"""The table formatter against its previous implementation, kept here as the reference.

``reference_emit`` is the formatter as it stood before cells were dispatched
on their exact type and formatted once: an ``isinstance`` chain per cell,
every text cell formatted twice, one ``write`` per line.  The output of
``qmorse.cli._emit`` must stay byte-identical to it for every format and
``--digits``.
"""

import argparse
import io
import json

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from qmorse.cli import _constants_dict, _emit


def _reference_json_safe(value):
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    return value


def reference_emit(table: dict, args, stream) -> None:
    fmt = args.format
    digits = args.digits
    rows = table["rows"]
    columns = table["columns"]

    def fnum(value) -> str:
        if isinstance(value, bool):
            return str(value).lower()
        if isinstance(value, (int, np.integer)):
            return str(int(value))
        if isinstance(value, complex):
            return f"{value.real:.{digits}g}{value.imag:+.{digits}g}j"
        if isinstance(value, float):
            return f"{value:.{digits}g}"
        return str(value)

    if fmt == "json":
        payload = {
            "params": table["params"],
            "constants": _constants_dict(),
            "columns": columns,
            "rows": [[_reference_json_safe(v) for v in row] for row in rows],
        }
        stream.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return
    if fmt == "csv":
        for key in sorted(table["params"]):
            stream.write(f"# {key} = {table['params'][key]}\n")
        for key, value in sorted(_constants_dict().items()):
            stream.write(f"# {key} = {value!r}\n")
        stream.write(",".join(columns) + "\n")
        for row in rows:
            stream.write(",".join(fnum(v) for v in row) + "\n")
        return
    # text
    widths = [
        max(len(col), max((len(fnum(row[i])) for row in rows), default=0))
        for i, col in enumerate(columns)
    ]
    stream.write("  ".join(col.rjust(w) for col, w in zip(columns, widths)) + "\n")
    for row in rows:
        stream.write("  ".join(fnum(v).rjust(w) for v, w in zip(row, widths)) + "\n")


def _outcome(emit, table, args):
    """The bytes written, or the type of the exception raised (json of a numpy bool)."""
    stream = io.StringIO()
    try:
        emit(table, args, stream)
    except TypeError as exc:
        return type(exc)
    return stream.getvalue()


floats = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
complexes = st.complex_numbers(allow_nan=True, allow_infinity=True)
cells = st.one_of(
    floats,
    st.sampled_from([-0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1e308]),
    st.integers(-10**30, 10**30),
    st.booleans(),
    complexes,
    st.text(max_size=6),
    st.none(),
    floats.map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.integers(-2**31, 2**31 - 1).map(np.int32),
    st.booleans().map(np.bool_),
    complexes.map(np.complex128),
)


@st.composite
def tables(draw):
    columns = draw(st.lists(st.text(min_size=1, max_size=8), min_size=1, max_size=6))
    container = draw(st.sampled_from([tuple, list]))
    rows = [container(row) for row in draw(st.lists(
        st.lists(cells, min_size=len(columns), max_size=len(columns)), max_size=12))]
    params = draw(st.dictionaries(st.text(min_size=1, max_size=6),
                                  st.one_of(floats, st.integers(), st.text(max_size=6)),
                                  max_size=4))
    return {"params": params, "columns": columns, "rows": rows}


@given(table=tables(), fmt=st.sampled_from(["text", "csv", "json"]), digits=st.integers(1, 25))
def test_emit_matches_reference(table, fmt, digits):
    args = argparse.Namespace(format=fmt, digits=digits)
    assert _outcome(_emit, table, args) == _outcome(reference_emit, table, args)
