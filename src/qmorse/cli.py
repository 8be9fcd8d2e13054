"""Command-line front-end.

Subcommands: spectrum, table3, nmax, wavefunction, oracle-compare,
special-case.  Exit codes: 0 success, 1 numeric failure or a closed stdout
pipe (nothing on stderr), 2 usage or domain error, a path that cannot be read
or written or a failed write to stdout, 3 golden-value mismatch (table3).
``main`` renders every output, ``-h`` and ``--show-constants`` too, before
``_write``, the one writer of stdout and ``--output``, puts it out, and returns
every status; a failed request writes nothing.  An argv that begins with a
subcommand goes straight to that subcommand's parser.  Table commands hand
``_write_table`` params and ``(name, cells)`` column pairs, the cells a list or
a 1-D numpy array; ``oracle-compare`` renders its report through the same cell
specs and text table.  At module level
only the standard library and the numpy-free errors, units and molecules are
imported; each ``cmd_*`` imports numpy and its evaluators when it runs, so
``--show-constants`` loads no numpy and only ``oracle-compare`` loads scipy.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import io
import json
import math
import os
import stat
import sys
from itertools import chain
from json.encoder import encode_basestring_ascii

from .errors import DomainError
from .molecules import MoleculeRecord, builtin, load_molecules
from .units import UNITS

ENV_MOLECULE_PATH = "MORSE_MOLECULE_PATH"

#: most rows one request may print: the s-wave ladder of ``nmax --full`` (CO has
#: 8.3e8 at q = 1e7), ``special-case --levels``, ``wavefunction --points`` and the
#: n x l grid of ``spectrum``; 91 830 ladder rows (CO at q = 1100) take 0.07-0.15 s
#: and a 55-69 MB process peak RSS in process, on one core of a 2-core x86-64 VM
MAX_LADDER_ROWS = 10**5

#: special-case fields whose CLI flag differs from the field name
CASE_FLAGS = {"r_e": "re", "d_hat": "dhat"}

#: ``special_cases.CASE_IDS``, spelled out so that parsing imports no numpy
CASE_IDS = ("generalized_vibrational", "non_pt", "pt_type1", "pt_type2")


def _constants_dict() -> dict:
    return {
        "amu_to_eV_per_c2": UNITS.amu_to_eV_per_c2,
        "wavenumber_to_eV": UNITS.wavenumber_to_eV,
        "hbar_c_eV_A": UNITS.hbar_c,
    }


def _resolve_molecules(names: list[str], molecule_file: str | None) -> list[MoleculeRecord]:
    """Each name's record: from one read of the molecule file if any, else built in."""
    path = molecule_file or os.environ.get(ENV_MOLECULE_PATH)
    records = {}
    if path:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
        except (OSError, UnicodeDecodeError) as exc:
            reason = exc.reason if isinstance(exc, UnicodeDecodeError) else exc.strerror
            raise DomainError(f"cannot read {path}: {reason}") from exc
        records = {rec.name.lower(): rec for rec in load_molecules(text)}  # the last of a name wins
    return [records.get(name.lower()) or builtin(name) for name in names]


def _parse_int_list(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise DomainError(f"expected a comma-separated integer list, got {text!r}") from exc
    if not values:
        raise DomainError("empty quantum-number list")
    if any(v < 0 for v in values):
        raise DomainError("quantum numbers must be non-negative")
    return values


_BOOL_TEXT = {True: "true", False: "false"}
#: json's text of the non-finite floats, by their repr
_JSON_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


#: the cell type of an array column, by its dtype's kind; a long double is left
#: out by its size, since its ``.tolist()`` keeps numpy scalars
_ARRAY_CELLS = {"f": float, "i": int, "u": int, "b": bool}


def _typed_cells(name: str, column) -> tuple[type, list]:
    """The one type of every cell of the column, float, int, bool or str (str if
    empty), and the cells as a list.

    A 1-D numpy array is typed by its dtype and turned into a list by one
    ``.tolist()``; a list is typed by its cells.  Raises ``TypeError`` naming
    the column for any other array, and for a list of mixed types, numpy
    scalars, complex, None or any other cell.
    """
    dtype = getattr(column, "dtype", None)
    if dtype is not None:
        kind = _ARRAY_CELLS.get(dtype.kind) if column.ndim == 1 and dtype.itemsize <= 8 else None
        if kind is None:
            raise TypeError(f"column {name!r} holds a {column.ndim}-D {dtype} array; a column "
                            "is a list or a 1-D float, int or bool array")
        return kind, column.tolist()
    kinds = set(map(type, column))
    if len(kinds) > 1 or not kinds <= {float, int, bool, str}:
        raise TypeError(f"column {name!r} holds {', '.join(sorted(k.__name__ for k in kinds))}; "
                        "a column holds cells of one type: float, int, bool or str")
    return (kinds.pop() if kinds else str), column


def _fill(template: str, columns, count: int, sep: str = "\n") -> str:
    """``count`` copies of the row ``template`` joined by ``sep``, filled row by row
    from ``columns`` in one ``%``: the cells are never formatted one call at a time."""
    return sep.join([template] * count) % tuple(chain.from_iterable(zip(*columns)))


def _cell_spec(name: str, column, float_spec: str, is_json: bool) -> tuple[list, str]:
    """The cells of one column as one ``%`` spec formats them, and that spec:
    ``float_spec`` for floats (``%r`` is how json writes a finite float), bools
    as true/false, strings as JSON strings in JSON and non-finite floats there
    by json's names."""
    kind, column = _typed_cells(name, column)
    if kind is bool:
        return list(map(_BOOL_TEXT.__getitem__, column)), "%s"
    if kind is str:
        return list(map(encode_basestring_ascii, column)) if is_json else column, "%s"
    if kind is int:
        return column, "%d"
    if is_json and not all(map(math.isfinite, column)):
        return [_JSON_NON_FINITE.get(text, text) for text in map(repr, column)], "%s"
    return column, float_spec


def _json_with_rows(head: dict, row: str, data, count: int) -> str:
    """``head`` as ``json.dumps(..., indent=2, sort_keys=True)`` writes it, with
    its last ``[]``, the one list it holds, filled by ``count`` copies of the
    ``row`` template, each a list element at indent 4."""
    text = json.dumps(head, indent=2, sort_keys=True)
    if count:
        before, _, after = text.rpartition("[]")
        text = before + "[\n" + _fill(row, data, count, ",\n") + "\n  ]" + after
    return text + "\n"


def _text_table(names, data, specs, count: int) -> list[str]:
    """The header line and, if any, the ``count`` rows as one string: each column
    right-aligned to its widest cell or name, two spaces between columns."""
    texts = [column if spec == "%s" else _fill(spec, [column], count).split("\n")
             for spec, column in zip(specs, data)]
    widths = [max(len(name), max(map(len, column), default=0))
              for name, column in zip(names, texts)]
    row = "  ".join(f"%{w}s" for w in widths)
    return [row % tuple(names)] + ([_fill(row, texts, count)] if count else [])


def _write_table(params: dict, columns: list[tuple[str, list]], args, stream) -> None:
    """Write one table in one ``write``: ``params`` for its header and one
    ``(name, cells)`` pair per column, a list or a 1-D array (``_typed_cells``),
    every column as long as the first."""
    names = [name for name, _ in columns]
    count = len(columns[0][1])
    is_json = args.format == "json"
    float_spec = "%r" if is_json else f"%.{args.digits or 6}g"
    data, specs = zip(*(_cell_spec(name, cells, float_spec, is_json) for name, cells in columns))
    if is_json:  # "rows" sorts last: its [] is the last one in the head
        stream.write(_json_with_rows(
            {"params": params, "constants": _constants_dict(), "columns": names, "rows": []},
            "    [\n      " + ",\n      ".join(specs) + "\n    ]", data, count))
        return
    if args.format == "csv":
        lines = [f"# {key} = {params[key]}" for key in sorted(params)]
        lines += [f"# {key} = {value!r}" for key, value in sorted(_constants_dict().items())]
        lines += [",".join(names)] + ([_fill(",".join(specs), data, count)] if count else [])
    else:
        lines = _text_table(names, data, specs, count)
    stream.write("\n".join(lines) + "\n")


def _report_levels(report, flags) -> list[tuple[str, list]]:
    """The report's levels as json's ``(key, cells)`` columns, ``flags`` as "flagged"."""
    return [("closed_form_eV", report.closed), ("deviation_eV", report.deviation),
            ("flagged", flags), ("index", list(range(len(report.closed)))),
            ("oracle_eV", report.oracle), ("oracle_error_eV", report.error)]


def _report_json(report) -> str:
    """The report as ``json.dumps(..., indent=2, sort_keys=True)`` writes it."""
    from .oracle import FLAG_FACTOR

    columns = _report_levels(report, report.flagged)
    data, specs = zip(*(_cell_spec(name, cells, "%r", True) for name, cells in columns))
    row = "    {\n" + ",\n".join(f'      "{name}": {spec}'
                                  for (name, _), spec in zip(columns, specs)) + "\n    }"
    return _json_with_rows({
        "closed_count": report.closed_count, "count_mismatch": report.count_mismatch,
        "flag_factor": FLAG_FACTOR, "levels": [], "max_deviation_eV": report.max_deviation,
        "oracle_count": report.oracle_count,
    }, row, data, len(report.closed))


#: the text report's columns: header and float format, by the JSON key they show
_REPORT_TEXT = {"index": ("idx", None), "closed_form_eV": ("closed form", "%.9f"),
                "oracle_eV": ("oracle", "%.9f"), "deviation_eV": ("deviation", "%.3e"),
                "oracle_error_eV": ("est. err", "%.3e"), "flagged": ("flag", None)}


def _report_text(report) -> str:
    """The report as a text table of its levels, "!" marking a flagged one, and a
    last line with both counts."""
    columns = dict(_report_levels(report, ["!" if f else "" for f in report.flagged.tolist()]))
    data, specs = zip(*(_cell_spec(head, columns[key], float_spec, False)
                        for key, (head, float_spec) in _REPORT_TEXT.items()))
    lines = _text_table([head for head, _ in _REPORT_TEXT.values()], data, specs, len(data[0]))
    lines.append(f"levels: closed-form {report.closed_count}, oracle {report.oracle_count}"
                 + ("  (count mismatch)" if report.count_mismatch else ""))
    return "\n".join(lines) + "\n"


def _check_rows(flag: str, count: int) -> None:
    """Refuse, before anything is built, a request for more than MAX_LADDER_ROWS rows."""
    if count > MAX_LADDER_ROWS:
        raise DomainError(f"{flag} {count} asks for more than {MAX_LADDER_ROWS} rows")


def _positive_int(text: str) -> int:
    if not text.isdigit() or int(text) == 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _digits(text: str) -> int:
    """1 to 17 significant digits: 17 tell every float64 apart, and more would
    print digits of its binary expansion that carry nothing."""
    if not text.isdigit() or not 1 <= int(text) <= 17:
        raise argparse.ArgumentTypeError(f"expected 1 to 17 significant digits, got {text!r}")
    return int(text)


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def cmd_spectrum(args, stream) -> int:
    import numpy as np

    from .potential import MassModel, PotentialParams
    from .spectrum import spectrum_grid

    [mol] = _resolve_molecules([args.molecule], args.molecule_file)
    n_list = _parse_int_list(args.n)
    l_list = _parse_int_list(args.l)
    _check_rows("--n x --l", len(n_list) * len(l_list))
    p = PotentialParams.from_molecule(mol, args.q)
    mm = MassModel.from_molecule(mol, args.delta)
    grid = spectrum_grid(p, mm, np.array(n_list)[:, None], l_list).raise_fault()
    if not np.isfinite(grid.energy).all():
        raise OverflowError(f"energies overflow a float at q={args.q!r}")
    params = {"molecule": mol.name, "q": args.q, "delta": args.delta,
              "n": args.n, "l": args.l, "energy_zero": "dissociation"}
    _write_table(params, [
        ("n", np.repeat(n_list, len(l_list))), ("l", l_list * len(n_list)),
        ("eps_nl", grid.eps.ravel()), ("E_eV", grid.energy.ravel()),
        ("minus_E", (-grid.energy).ravel()), ("bound", grid.bound.ravel()),
    ], args, stream)
    return 0


def cmd_table3(args, stream) -> int:
    from .potential import MassModel, PotentialParams
    from .reference import REFERENCE_MINUS_E, TABLE_MOLECULE, cell_decimals, cell_matches
    from .spectrum import spectrum_grid

    blocks, n, l, printed, minus_e = [], [], [], [], []
    for block in ("H2", "LiH", "CO", "HCl"):
        mol = builtin(TABLE_MOLECULE[block])
        cells = sorted(REFERENCE_MINUS_E[block].items())
        block_n, block_l = zip(*(key for key, _ in cells))
        grid = spectrum_grid(PotentialParams.from_molecule(mol, 1.0), MassModel.from_molecule(mol),
                             block_n, block_l).raise_fault()
        blocks += [block] * len(cells)
        n += block_n
        l += block_l
        printed += (value for _, value in cells)
        minus_e += (-grid.energy).tolist()
    match = list(map(cell_matches, minus_e, printed))
    params = {"q": 1.0, "delta": 0.0, "energy_zero": "dissociation",
              "H2_parameter_set": TABLE_MOLECULE["H2"]}
    _write_table(params, [
        ("block", blocks), ("n", n), ("l", l), ("reference", printed),
        ("computed", list(map(round, minus_e, map(cell_decimals, printed)))),
        ("deviation", [e - float(p) for e, p in zip(minus_e, printed)]), ("match", match),
    ], args, stream)
    stream.write(f"{sum(match)}/{len(match)} cells matched\n")
    return 0 if all(match) else 3


def cmd_nmax(args, stream) -> int:
    import numpy as np

    from .potential import MassModel, PotentialParams
    from .spectrum import ladder_length, spectrum_grid

    names = [s.strip() for s in args.molecules.split(",") if s.strip()]
    if not names:
        raise DomainError("empty molecule list")
    wells = []
    for mol in _resolve_molecules(names, args.molecule_file):
        p, mm = PotentialParams.from_molecule(mol, args.q), MassModel.from_molecule(mol)
        wells.append((mol.name, p, mm, ladder_length(p, mm, 0)))
    # the bound levels, and the edge row if any is bound
    total = sum(count + (count > 0) for *_, count in wells) if args.full else 0
    if total > MAX_LADDER_ROWS:
        raise DomainError(f"nmax --full at --q {args.q!r} would print {total} ladder rows, "
                          f"more than {MAX_LADDER_ROWS}; lower --q or drop --full")
    edge, last_bound, ladder = [], [], [[], [], [], []]
    for name, p, mm, count in wells:
        # one grid per molecule: n = 0..n_max with --full, else n_max - 1 and n_max
        # (as floats: n_max outgrows an int64 at a huge --q); the summary reads
        # its two cells from that grid, so they equal their ladder rows exactly
        n = np.arange(count + 1) if args.full else np.array([max(count - 1, 0), count], float)
        grid = spectrum_grid(p, mm, n, 0)
        energy = grid.energy.tolist()
        edge.append(energy[-1])
        last_bound.append(energy[-2] if count > 0 else float("nan"))
        if args.full and count > 0:  # every level and the edge row
            shown = ([name] * len(energy), range(len(energy)), energy, grid.bound.tolist())
            for cells, more in zip(ladder, shown):
                cells += more
    params = {"molecules": args.molecules, "q": args.q,
              "note": "n_max = number of normalizable s-wave levels; "
                      "E_edge = formula value at index n_max (nearest the continuum); "
                      "E_last_bound = level n_max - 1"}
    _write_table(params, [
        ("molecule", [name for name, *_ in wells]), ("n_max", [count for *_, count in wells]),
        ("E_edge_eV", edge), ("E_last_bound_eV", last_bound),
    ], args, stream)
    if ladder[0]:
        stream.write("\n")
        _write_table(params, list(zip(["molecule", "n", "E_eV", "bound"], ladder)), args, stream)
    return 0


def cmd_wavefunction(args, stream) -> int:
    import numpy as np

    from .potential import MassModel, PotentialParams, mass_pole_radius
    from .spectrum import QuantumState
    from .wavefunctions import radial_wavefunction

    _check_rows("--points", args.points)
    [mol] = _resolve_molecules([args.molecule], args.molecule_file)
    p = PotentialParams.from_molecule(mol, args.q)
    mm = MassModel.from_molecule(mol, args.delta)
    state = QuantumState(args.n, args.l)
    r_hi = args.r_max if args.r_max is not None else p.r_e + 12.0 / p.a
    r_lo = args.r_min
    if r_lo is None:
        r_lo = max(1e-3, p.r_e - 4.0 / p.a)
        pole = mass_pole_radius(mm, p)
        if pole is not None and pole >= r_lo:  # start one grid step outside the pole
            r_lo = pole + (r_hi - pole) / max(args.points, 2)
    if not (0.0 < r_lo < r_hi < math.inf):  # also false for a NaN end
        raise DomainError(f"wavefunction range needs 0 < r_min < r_max < inf, "
                          f"got r_min={r_lo:g}, r_max={r_hi:g}")
    grid = np.linspace(r_lo, r_hi, args.points)
    u, psi = radial_wavefunction(p, mm, state, grid)
    params = {"molecule": mol.name, "q": args.q, "delta": args.delta,
              "n": args.n, "l": args.l, "r_min": r_lo, "r_max": r_hi,
              "points": args.points, "note": "normalization=closed form"}
    _write_table(params, [("r_A", grid), ("u", u), ("psi", psi)], args, stream)
    return 0


def cmd_oracle_compare(args, stream) -> int:
    from .oracle import SUGGESTED_MAX_GRID_POINTS, compare, problem, solve, suggest_config
    from .potential import MassModel, PotentialParams

    [mol] = _resolve_molecules([args.molecule], args.molecule_file)
    prob = problem(PotentialParams.from_molecule(mol, args.q),
                   MassModel.from_molecule(mol, args.delta), args.l, args.centrifugal)
    cfg = suggest_config(prob)
    at_cap = args.grid is None and cfg.grid_points == SUGGESTED_MAX_GRID_POINTS
    if args.grid is not None:
        cfg = dataclasses.replace(cfg, grid_points=args.grid)
    report = compare(prob.ladder, solve(prob, cfg))
    if args.format == "json":
        stream.write(_report_json(report))
    else:
        coordinate = "uniform" if prob.origin is None else "mapped-log"
        stream.write(f"molecule={mol.name} q={args.q} delta={args.delta} l={args.l} "
                     f"centrifugal={args.centrifugal} coordinate={coordinate} "
                     f"grid={cfg.grid_points}{' (at cap)' if at_cap else ''}"
                     f" domain=[{cfg.r_min:.4f},{cfg.r_max:.4f}]\n" + _report_text(report))
    return 0


def cmd_special_case(args, stream) -> int:
    import numpy as np

    from . import special_cases

    _check_rows("--levels", args.levels)
    case_id = args.case.replace("-", "_")
    case_type = special_cases.SPECIAL_CASES[case_id]
    given = {flag: value for flag in ("D", "alpha", "q", "mu", "re", "dhat", "omega")
             if (value := getattr(args, flag)) is not None}
    values, flags = {}, {}  # by field name, and by flag name for the params header
    for field in dataclasses.fields(case_type):
        flag = CASE_FLAGS.get(field.name, field.name)
        value = given.pop(flag, 1.0 if flag in ("alpha", "q") else None)  # both default to 1
        if value is None:
            raise DomainError(f"--case {args.case} requires --{flag}")
        values[field.name] = flags[flag] = value
    if given:  # a flag the well has no field for
        raise DomainError(f"--case {args.case} does not read --{next(iter(given))}")
    energy, bound = special_cases.special_case_ladder(case_type(**values), np.arange(args.levels))
    imag = np.imag(energy)
    _write_table({"case": case_id, **flags}, [
        ("n", list(range(args.levels))), ("Re_E_eV", np.real(energy)),
        ("Im_E_eV", imag), ("bound", bound), ("non_real", imag != 0),
    ], args, stream)
    return 0


class _ParserExit(Exception):
    """A parse that ends in no request, with args (status, text for stdout)."""


class _Parser(argparse.ArgumentParser):
    """Hands ``-h``'s help and every exit to ``main`` as ``_ParserExit``, subparsers too.

    An argv whose first word is a subcommand goes straight to that subcommand's
    parser: argparse's top-level pass would only scan every word again and
    then hand them all to it.  Any other argv, or a given namespace, takes
    that top-level pass.
    """

    #: the defaults of the top-level flags and the subcommand parsers by name,
    #: which ``build_parser`` sets on the top-level parser; a subparser has none
    top_level: tuple[dict, dict] = ({}, {})

    def parse_known_args(self, args=None, namespace=None):
        args = sys.argv[1:] if args is None else args
        defaults, subcommands = self.top_level
        parser = subcommands.get(args[0]) if args and namespace is None else None
        if parser is None:
            return super().parse_known_args(args, namespace)
        # the namespace of the top-level pass: its defaults, the subcommand, the
        # subcommand's values over them, and the words the subcommand did not read
        namespace = argparse.Namespace(**defaults, command=args[0])
        values, extras = parser.parse_known_args(args[1:])
        vars(namespace).update(vars(values))
        return namespace, extras

    def print_help(self, file=None) -> None:
        raise _ParserExit(0, self.format_help())

    def exit(self, status: int = 0, message: str | None = None) -> None:
        self._print_message(message, sys.stderr)  # the usage error, if any
        raise _ParserExit(status, "")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qmorse",
        description="Bound-state energies and wavefunctions of deformed Morse oscillators.",
    )
    show = parser.add_argument("--show-constants", action="store_true",
                               help="print the three unit constants and exit")
    sub = parser.add_subparsers(dest="command")
    parser.top_level = ({show.dest: show.default}, sub.choices)

    def add_common(sp, table=True, molecules=True, well=False):
        # --digits and csv only where _write_table prints the result as columns,
        # --molecule-file only where _resolve_molecules reads it, and --molecule,
        # --q and --delta where one molecule's well is solved
        sp.add_argument("--format", choices=("text", "csv", "json") if table else ("text", "json"),
                        default="text")
        sp.add_argument("--output", default=None, help="write to this path instead of stdout")
        if table:
            sp.add_argument("--digits", type=_digits, default=None,
                            help="significant digits, 1 to 17 (default 6; not with json)")
        if molecules:
            sp.add_argument("--molecule-file", default=None,
                            help=f"molecule definition file (default: ${ENV_MOLECULE_PATH})")
        if well:
            sp.add_argument("--molecule", required=True)
            sp.add_argument("--q", type=float, default=1.0)
            sp.add_argument("--delta", type=float, default=0.0)

    sp = sub.add_parser("spectrum", help="closed-form energies over n/l ranges")
    add_common(sp, well=True)
    sp.add_argument("--n", required=True, help="comma-separated vibrational numbers")
    sp.add_argument("--l", required=True, help="comma-separated rotational numbers")
    sp.set_defaults(func=cmd_spectrum)

    sp = sub.add_parser("table3", help="reproduce the bundled reference energy table and "
                                       "check every cell")
    add_common(sp, molecules=False)
    sp.set_defaults(func=cmd_table3)

    sp = sub.add_parser("nmax", help="bound-state counts and ladder-edge energies")
    add_common(sp)
    sp.add_argument("--molecules", default="H2,LiH,HCl,CO")
    sp.add_argument("--q", type=float, default=1.0)
    sp.add_argument("--full", action="store_true", help="print the full s-wave ladder")
    sp.set_defaults(func=cmd_nmax)

    sp = sub.add_parser("wavefunction", help="dump a sampled radial wavefunction")
    add_common(sp, well=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--l", type=int, default=0)
    sp.add_argument("--r-min", type=float, default=None)
    sp.add_argument("--r-max", type=float, default=None)
    sp.add_argument("--points", type=_positive_int, default=400)
    sp.set_defaults(func=cmd_wavefunction)

    sp = sub.add_parser("oracle-compare", help="finite-difference check of the closed forms")
    add_common(sp, table=False, well=True)
    sp.add_argument("--l", type=int, default=0)
    sp.add_argument("--centrifugal", choices=("exact", "pekeris"), default="pekeris")
    sp.add_argument("--grid", type=int, default=None)
    sp.set_defaults(func=cmd_oracle_compare)

    sp = sub.add_parser("special-case", help="closed forms of the named special wells")
    add_common(sp, molecules=False)
    sp.add_argument("--case", required=True, choices=[
        form for case_id in CASE_IDS for form in (case_id.replace("_", "-"), case_id)])
    sp.add_argument("--D", type=_finite_float, required=True, help="well scale (eV)")
    sp.add_argument("--alpha", type=_finite_float, default=None,
                    help="dimensionless range (default 1)")
    sp.add_argument("--q", type=_finite_float, default=None, help="deformation (default 1)")
    sp.add_argument("--mu", type=_finite_float, required=True, help="reduced mass (amu)")
    sp.add_argument("--re", type=_finite_float, required=True, help="equilibrium separation (A)")
    sp.add_argument("--dhat", type=_finite_float, default=None,
                    help="coupling of the complex wells")
    sp.add_argument("--omega", type=_finite_float, default=None)
    sp.add_argument("--levels", type=_positive_int, default=6)
    sp.set_defaults(func=cmd_special_case)
    return parser


@functools.cache
def _parser(build) -> argparse.ArgumentParser:
    return build()


def _write(path: str | None, text: str) -> None:
    """Put ``text`` out whole by ``os.write``, which a pipe may take in parts:
    into the file at ``path`` as UTF-8, rewritten in place (``O_TRUNC`` on a
    just-written file stalls on ext4) and, if regular, cut to the bytes
    written, or with no path onto stdout in its encoding.  A stdout with no
    file descriptor (a ``StringIO``) takes ``text`` by its own ``write``."""
    if path is None:
        try:
            fd = sys.stdout.fileno()
        except (AttributeError, ValueError):
            sys.stdout.write(text)
            return
        sys.stdout.flush()  # what an in-process caller printed comes first
        data = text.encode(sys.stdout.encoding, sys.stdout.errors)
    else:
        data = text.encode("utf-8")
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    view = memoryview(data)
    try:
        while view:
            view = view[os.write(fd, view):]
    finally:
        if path is not None:
            try:  # a failed write too leaves no byte of the old file past the new ones
                if stat.S_ISREG(os.fstat(fd).st_mode):
                    os.ftruncate(fd, len(data) - len(view))
            finally:
                os.close(fd)


def main(argv=None) -> int:
    # argparse keeps no state between parses, so one tree serves every call in
    # the process; keyed on the builder, so a replaced build_parser takes effect
    parser = _parser(build_parser)
    try:
        # rendered whole first: a request that fails writes nothing anywhere
        text, path, code = io.StringIO(), None, 0
        try:
            args = parser.parse_args(argv)
            if args.show_constants and args.command:
                parser.error(f"--show-constants takes no subcommand, got {args.command}")
            if args.show_constants:
                text.writelines("%s = %r\n" % item for item in sorted(_constants_dict().items()))
            elif args.command:
                if getattr(args, "digits", None) is not None and args.format == "json":
                    raise DomainError("--format json does not read --digits")
                code, path = args.func(args, text), args.output
            else:
                raise _ParserExit(2, parser.format_help())
        except _ParserExit as exc:  # the help, or a usage error already on stderr
            code, help_text = exc.args
            text.write(help_text)
        try:
            _write(path, text.getvalue())
        except OSError as exc:
            if path is None and isinstance(exc, BrokenPipeError):
                return 1  # the reader closed stdout (`| head`): report nothing
            raise DomainError(f"cannot write {path or 'stdout'}: {exc.strerror}") from exc
        return code
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # numeric or internal failure
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
