"""The table formatter against its previous implementation, kept here as the reference.

``reference_emit`` is the formatter as it stood before columns were formatted
whole: an ``isinstance`` chain per cell, every text cell formatted twice, one
``write`` per line, and the whole json payload through ``json.dumps``.  It
takes a table of rows, while ``qmorse.cli._write_table`` takes the params and
one ``(name, cells)`` pair per column; ``write_table`` and
``reference_writer`` adapt each to the other's input.  The output of
``_write_table`` must stay byte-identical to the reference for every format
and ``--digits``, on drawn tables and on the tables of real commands.  Every
column ``_write_table`` takes is a list of cells of one plain type (float,
int, bool or str) or a 1-D float, int or bool array, which emits what the list
of its cells emits; any other column, which the reference formatted cell by
cell, raises ``TypeError`` naming the column.
"""

import argparse
import io
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qmorse.cli as cli
from qmorse.cli import _constants_dict, _write_table, main


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


def write_table(table: dict, args, stream) -> None:
    """``_write_table`` on a table of rows: each row's cells dealt out to the columns."""
    cells = list(zip(*table["rows"])) if table["rows"] else [()] * len(table["columns"])
    _write_table(table["params"], [(name, list(column))
                                   for name, column in zip(table["columns"], cells)],
                 args, stream)


def reference_writer(params: dict, columns: list, args, stream) -> None:
    """``reference_emit`` called as ``_write_table`` is: the columns zipped into
    rows, an array column first turned into the list of its cells (the
    reference prints a numpy bool as ``True``), each cell then formatted by
    the reference."""
    cells = [column.tolist() if isinstance(column, np.ndarray) else column
             for _, column in columns]
    reference_emit({"params": params, "columns": [name for name, _ in columns],
                    "rows": list(zip(*cells))}, args, stream)


def _outcome(emit, table, args):
    """The text written."""
    stream = io.StringIO()
    emit(table, args, stream)
    return stream.getvalue()


floats = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
# every cell of a column has one plain type
plain_cells = [floats, st.integers(-10**30, 10**30), st.booleans(), st.text(max_size=6)]


@st.composite
def tables(draw):
    columns = draw(st.lists(st.text(min_size=1, max_size=8), min_size=1, max_size=6))
    container = draw(st.sampled_from([tuple, list]))
    count = draw(st.integers(0, 12))
    cells = [draw(st.lists(draw(st.sampled_from(plain_cells)), min_size=count, max_size=count))
             for _ in columns]
    rows = [container(row) for row in zip(*cells)]
    params = draw(st.dictionaries(st.text(min_size=1, max_size=6),
                                  st.one_of(floats, st.integers(), st.text(max_size=6)),
                                  max_size=4))
    return {"params": params, "columns": columns, "rows": rows}


@given(table=tables(), fmt=st.sampled_from(["text", "csv", "json"]), digits=st.integers(1, 25))
def test_emit_matches_reference(table, fmt, digits):
    args = argparse.Namespace(format=fmt, digits=digits)
    assert _outcome(write_table, table, args) == _outcome(reference_emit, table, args)


# One strategy per column, edge values included: every cell of a drawn column
# has the same plain type, so the emitter formats it with one spec.
column_cells = [
    floats,
    st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True),
    st.sampled_from([-0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1e308, -1e-300]),
    st.sampled_from([math.nan, math.inf, -math.inf, 1.5]),
    st.integers(-10**30, 10**30),
    st.booleans(),
    st.text(alphabet=st.one_of(st.sampled_from('%"\\\n\t\x00\u00e9\u20ac\U0001f600'),
                               st.characters()), max_size=8),
]


@st.composite
def homogeneous_tables(draw):
    width = draw(st.integers(1, 6))
    count = draw(st.one_of(st.just(0), st.just(1), st.integers(2, 40)))
    columns = [draw(st.lists(draw(st.sampled_from(column_cells)), min_size=count, max_size=count))
               for _ in range(width)]
    names = draw(st.lists(st.text(min_size=1, max_size=8), min_size=width, max_size=width))
    return {"params": draw(st.dictionaries(st.text(min_size=1, max_size=6), floats, max_size=2)),
            "columns": names, "rows": list(zip(*columns))}


@settings(max_examples=300)  # a json table with a non-finite float column is ~1 in 20
@given(table=homogeneous_tables(), fmt=st.sampled_from(["text", "csv", "json"]),
       digits=st.integers(1, 25))
@example(table={"params": {}, "columns": ["x", "ok", "name"],
                "rows": [(math.nan, True, '%"\\\n\u00e9'), (-math.inf, False, "")]},
         fmt="json", digits=6)
def test_emit_homogeneous_columns_match_reference(table, fmt, digits):
    args = argparse.Namespace(format=fmt, digits=digits)
    assert _outcome(write_table, table, args) == _outcome(reference_emit, table, args)


BAD_COLUMNS = {
    "mixed": [1.5, 2],
    "np.float64": [np.float64(1.5)],
    "np.int64": [np.int64(3)],
    "np.bool_": [np.bool_(True)],
    "complex": [1 + 2j],
    "None": [None],
}


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
@pytest.mark.parametrize("cells", BAD_COLUMNS.values(), ids=list(BAD_COLUMNS))
def test_column_of_no_one_plain_type_raises(fmt, cells):
    table = {"params": {}, "columns": ["ok", "bad column"], "rows": [(1.0, c) for c in cells]}
    stream = io.StringIO()
    with pytest.raises(TypeError, match="column 'bad column' holds"):
        write_table(table, argparse.Namespace(format=fmt, digits=6), stream)
    assert stream.getvalue() == ""


#: a table column may also be a 1-D array of floats, ints or bools: it emits
#: what the list of its cells emits
ARRAY_COLUMNS = {
    "float64": np.array([1.5, -0.0, 5e-324, -2.2250738585072014e-308, 1e308, 1 / 3,
                         math.nan, math.inf, -math.inf]),
    "float32": np.array([1.1, -2.5e-7, 3.4e38, 1 / 3, math.nan, math.inf, -math.inf],
                        np.float32),
    "int64": np.array([0, -1, 7, 2**63 - 1, -2**63]),
    "uint8": np.array([0, 7, 255], np.uint8),
    "bool": np.array([True, False, True]),
}


def _table_outcome(column, fmt):
    """The text ``_write_table`` writes for the table of one index column and ``column``."""
    stream = io.StringIO()
    _write_table({"p": 1.0}, [("index", list(range(len(column)))), ("x", column)],
                 argparse.Namespace(format=fmt, digits=17 if fmt != "json" else None), stream)
    return stream.getvalue()


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
@pytest.mark.parametrize("array", ARRAY_COLUMNS.values(), ids=list(ARRAY_COLUMNS))
def test_array_column_emits_its_cells(fmt, array):
    assert _table_outcome(array, fmt) == _table_outcome(array.tolist(), fmt)


class _NoIteration(np.ndarray):
    """An array that refuses to be iterated cell by cell."""

    def __iter__(self):
        raise AssertionError("an array column was iterated cell by cell")


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
@pytest.mark.parametrize("array", ARRAY_COLUMNS.values(), ids=list(ARRAY_COLUMNS))
def test_array_column_is_not_iterated_cell_by_cell(fmt, array):
    assert _table_outcome(array.view(_NoIteration), fmt) == _table_outcome(array.tolist(), fmt)


BAD_ARRAYS = {
    "complex": np.array([1 + 2j]),
    "object": np.array([1.5], dtype=object),
    "str": np.array(["a"]),
    "2-D": np.array([[1.5]]),
    "0-D": np.array(1.5),
    # where it is wider than a double, its .tolist() keeps numpy scalars
    **({"longdouble": np.array([1.5], np.longdouble)}
       if np.dtype(np.longdouble).itemsize > 8 else {}),
}


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
@pytest.mark.parametrize("array", BAD_ARRAYS.values(), ids=list(BAD_ARRAYS))
def test_array_column_of_no_plain_cell_type_raises(fmt, array):
    stream = io.StringIO()
    with pytest.raises(TypeError, match="column 'bad column' holds"):
        _write_table({}, [("ok", [1.0]), ("bad column", array)],
                     argparse.Namespace(format=fmt, digits=6), stream)
    assert stream.getvalue() == ""


COMMANDS = {
    "spectrum": ["spectrum", "--molecule", "CO", "--delta", "0.3", "--n", "0,1,7,40,200",
                 "--l", "0,7,30"],
    "table3": ["table3"],
    "nmax-full": ["nmax", "--molecules", "H2,LiH,HCl", "--q", "1.05", "--full"],
    # n_max = 0: its E_last_bound_eV sentinel is the one NaN a real table holds
    "nmax-sentinel": ["nmax", "--molecules", "H2,CO", "--q", "-0.5"],
    "wavefunction": ["wavefunction", "--molecule", "LiH", "--n", "3", "--delta", "0.05",
                     "--points", "40"],
    "special-case": ["special-case", "--case", "pt-type1", "--D", "2.0", "--dhat", "1.5",
                     "--mu", "0.9", "--re", "1.2"],
}


@pytest.mark.parametrize("digits", ["3", "6", "17"])
@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_commands_match_reference_emit(tmp_path, monkeypatch, command, fmt, digits):
    # the same request through the writer and through the reference: same file;
    # JSON reads no --digits, so there the flag is a usage error and is dropped
    def run(writer, name, flags):
        monkeypatch.setattr(cli, "_write_table", writer)
        path = tmp_path / name
        code = main([*COMMANDS[command], "--format", fmt, *flags, "--output", str(path)])
        return code, path.read_bytes() if path.exists() else None

    flags = ["--digits", digits]
    if fmt == "json":
        assert run(_write_table, "refused", flags) == (2, None)
        flags = []
    emitted = run(_write_table, "emit", flags)
    assert emitted == run(reference_writer, "reference", flags)
    assert emitted[0] == 0 and emitted[1]
