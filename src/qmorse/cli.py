"""Command-line front-end.

Subcommands: spectrum, table3, nmax, wavefunction, oracle-compare,
special-case.  Exit codes: 0 success, 1 numeric failure or a closed stdout
pipe (nothing on stderr), 2 usage or domain error, 3 golden-value mismatch
(table3).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
from itertools import chain
from json.encoder import encode_basestring_ascii

import numpy as np

from . import special_cases
from .errors import DomainError
from .molecules import MoleculeRecord, builtin, load_molecules
from .oracle import compare, solve, suggest_config
from .potential import MassModel, PotentialParams, mass_pole_radius
from .reference import (
    REFERENCE_MINUS_E,
    TABLE_MOLECULE,
    cell_decimals,
    cell_matches,
)
from .spectrum import QuantumState, bound_ladder, ladder_length, spectrum_grid
from .units import UNITS
from .wavefunctions import radial_wavefunction

ENV_MOLECULE_PATH = "MORSE_MOLECULE_PATH"

#: most s-wave ladder rows one ``nmax --full`` request may print (CO has 8.3e8 at
#: q = 1e7); 1e5 rows take about 1 s and 90 MB on one core of a 2-core x86-64 VM
MAX_LADDER_ROWS = 10**5

#: special-case fields whose CLI flag differs from the field name
CASE_FLAGS = {"r_e": "re", "d_hat": "dhat"}


def _constants_dict() -> dict:
    return {
        "amu_to_eV_per_c2": UNITS.amu_to_eV_per_c2,
        "wavenumber_to_eV": UNITS.wavenumber_to_eV,
        "hbar_c_eV_A": UNITS.hbar_c,
    }


def _resolve_molecule(name: str, molecule_file: str | None) -> MoleculeRecord:
    records: dict[str, MoleculeRecord] = {}
    path = molecule_file or os.environ.get(ENV_MOLECULE_PATH)
    if path:
        with open(path, "r", encoding="utf-8") as handle:
            for rec in load_molecules(handle.read()):
                records[rec.name.lower()] = rec
    if name.lower() in records:
        return records[name.lower()]
    return builtin(name)


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


def _cell_formatter(digits: int):
    """Return value -> cell text, for the cells of a column with no single plain type."""

    def cell(value) -> str:
        if isinstance(value, bool):
            return _BOOL_TEXT[value]
        if isinstance(value, (int, np.integer)):
            return str(int(value))
        if isinstance(value, complex):
            return f"{value.real:.{digits}g}{value.imag:+.{digits}g}j"
        if isinstance(value, float):
            return f"{value:.{digits}g}"
        return str(value)

    return cell


def _column_type(column):
    """The exact type of every cell of the column, if it is float, int, bool or str."""
    kinds = set(map(type, column))
    kind = kinds.pop() if len(kinds) == 1 else None
    return kind if kind in (float, int, bool, str) else None


def _fill(template: str, columns, count: int, sep: str = "\n") -> str:
    """``count`` copies of the row ``template`` joined by ``sep``, filled row by row
    from ``columns`` in one ``%``: the cells are never formatted one call at a time."""
    return sep.join([template] * count) % tuple(chain.from_iterable(zip(*columns)))


def _json_cells(column, kind) -> list[str]:
    """JSON text of each cell of a column that one ``%`` spec cannot format."""
    if kind is bool:
        return list(map(_BOOL_TEXT.__getitem__, column))
    if kind is str:
        return list(map(encode_basestring_ascii, column))
    # NaN/Infinity, numpy scalars, complex and None, as json writes them at a
    # cell's depth; json escapes newlines in strings, so each one is layout
    return [json.dumps(_json_safe(v), indent=2, sort_keys=True).replace("\n", "\n      ")
            for v in column]


def _emit(table: dict, args, stream) -> None:
    rows = table["rows"]
    columns = table["columns"]
    # transposed once; a column of one plain type is formatted by one % spec
    data = list(zip(*rows)) if rows else [()] * len(columns)
    kinds = list(map(_column_type, data))
    if args.format == "json":
        head = json.dumps({"params": table["params"], "constants": _constants_dict(),
                           "columns": columns, "rows": []}, indent=2, sort_keys=True)
        if rows:  # "rows" sorts last: its [] is the last one in the head
            specs = []
            for i, (column, kind) in enumerate(zip(data, kinds)):
                if kind is float and all(map(math.isfinite, column)):
                    specs.append("%r")  # float.__repr__, as json writes a finite float
                elif kind is int:
                    specs.append("%d")
                else:
                    specs.append("%s")
                    data[i] = _json_cells(column, kind)
            row = "    [\n      " + ",\n      ".join(specs) + "\n    ]"
            before, _, after = head.rpartition("[]")
            head = before + "[\n" + _fill(row, data, len(rows), ",\n") + "\n  ]" + after
        stream.write(head + "\n")
        return
    specs = []
    cell = _cell_formatter(args.digits)
    for i, (column, kind) in enumerate(zip(data, kinds)):
        if kind is float:
            specs.append(f"%.{args.digits}g")
        elif kind is int:
            specs.append("%d")
        else:
            specs.append("%s")
            if kind is not str:
                data[i] = list(map(_BOOL_TEXT.__getitem__ if kind is bool else cell, column))
    if args.format == "csv":
        lines = [f"# {key} = {table['params'][key]}" for key in sorted(table["params"])]
        lines += [f"# {key} = {value!r}" for key, value in sorted(_constants_dict().items())]
        lines.append(",".join(columns))
        if rows:
            lines.append(_fill(",".join(specs), data, len(rows)))
    else:  # text: each column as wide as its widest cell, right-aligned by %{width}s
        texts = [column if spec == "%s" else _fill(spec, [column], len(column)).split("\n")
                 for spec, column in zip(specs, data)]
        widths = [max(len(name), max(map(len, column), default=0))
                  for name, column in zip(columns, texts)]
        row = "  ".join(f"%{w}s" for w in widths)
        lines = [row % tuple(columns)]
        if rows:
            lines.append(_fill(row, texts, len(rows)))
    stream.write("\n".join(lines) + "\n")


def _json_safe(value):
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    return value


def _positive_int(text: str) -> int:
    if not text.isdigit() or int(text) == 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def cmd_spectrum(args, stream) -> int:
    mol = _resolve_molecule(args.molecule, args.molecule_file)
    n_list = _parse_int_list(args.n)
    l_list = _parse_int_list(args.l)
    p = PotentialParams.from_molecule(mol, args.q)
    mm = MassModel.from_molecule(mol, args.delta)
    grid = spectrum_grid(p, mm, np.array(n_list)[:, None], l_list).raise_fault()
    if not np.isfinite(grid.energy).all():
        raise OverflowError(f"energies overflow a float at q={args.q!r}")
    eps, energy, bound = grid.eps.tolist(), grid.energy.tolist(), grid.bound.tolist()
    rows = [
        (n, l, eps[i][j], energy[i][j], -energy[i][j], bound[i][j])
        for i, n in enumerate(n_list) for j, l in enumerate(l_list)
    ]
    table = {
        "params": {
            "molecule": mol.name, "q": args.q, "delta": args.delta,
            "n": args.n, "l": args.l, "energy_zero": "dissociation",
        },
        "columns": ["n", "l", "eps_nl", "E_eV", "minus_E", "bound"],
        "rows": rows,
    }
    _emit(table, args, stream)
    return 0


def cmd_table3(args, stream) -> int:
    rows = []
    all_ok = True
    for block in ("H2", "LiH", "CO", "HCl"):
        mol = builtin(TABLE_MOLECULE[block])
        cells = sorted(REFERENCE_MINUS_E[block].items())
        grid = spectrum_grid(PotentialParams.from_molecule(mol, 1.0), MassModel.from_molecule(mol),
                             [n for (n, _), _ in cells], [l for (_, l), _ in cells]).raise_fault()
        for ((n, l), printed), energy in zip(cells, grid.energy.tolist()):
            minus_e = -energy
            ok = cell_matches(minus_e, printed)
            all_ok &= ok
            dev = minus_e - float(printed)
            rows.append((block, n, l, printed, round(minus_e, cell_decimals(printed)), dev, ok))
    table = {
        "params": {
            "q": 1.0, "delta": 0.0, "energy_zero": "dissociation",
            "H2_parameter_set": TABLE_MOLECULE["H2"],
        },
        "columns": ["block", "n", "l", "reference", "computed", "deviation", "match"],
        "rows": rows,
    }
    _emit(table, args, stream)
    matched = sum(1 for r in rows if r[-1])
    stream.write(f"{matched}/{len(rows)} cells matched\n")
    return 0 if all_ok else 3


def cmd_nmax(args, stream) -> int:
    names = [s.strip() for s in args.molecules.split(",") if s.strip()]
    wells = []
    for name in names:
        mol = _resolve_molecule(name, args.molecule_file)
        p, mm = PotentialParams.from_molecule(mol, args.q), MassModel.from_molecule(mol)
        wells.append((mol.name, p, mm, ladder_length(p, mm, 0)))
    # the bound levels, and the edge row if any is bound
    total = sum(count + (count > 0) for *_, count in wells) if args.full else 0
    if total > MAX_LADDER_ROWS:
        raise DomainError(f"nmax --full at --q {args.q!r} would print {total} ladder rows, "
                          f"more than {MAX_LADDER_ROWS}; lower --q or drop --full")
    rows, ladder_rows = [], []
    for name, p, mm, count in wells:
        # one grid per molecule: n = 0..n_max with --full, else n_max - 1 and n_max
        # (as floats: n_max outgrows an int64 at a huge --q); the summary reads
        # its two cells from that grid, so they equal their ladder rows exactly
        n = np.arange(count + 1) if args.full else np.array([max(count - 1, 0), count], float)
        grid = spectrum_grid(p, mm, n, 0)
        energy = grid.energy.tolist()
        rows.append((name, count, energy[-1], energy[-2] if count > 0 else float("nan")))
        if args.full:
            shown = count + (count > 0)
            ladder_rows += zip([name] * shown, range(shown), energy, grid.bound.tolist())
    params = {"molecules": args.molecules, "q": args.q,
              "note": "n_max = number of normalizable s-wave levels; "
                      "E_edge = formula value at index n_max (nearest the continuum); "
                      "E_last_bound = level n_max - 1"}
    _emit({
        "params": params,
        "columns": ["molecule", "n_max", "E_edge_eV", "E_last_bound_eV"],
        "rows": rows,
    }, args, stream)
    if ladder_rows:
        stream.write("\n")
        _emit({
            "params": params,
            "columns": ["molecule", "n", "E_eV", "bound"],
            "rows": ladder_rows,
        }, args, stream)
    return 0


def cmd_wavefunction(args, stream) -> int:
    mol = _resolve_molecule(args.molecule, args.molecule_file)
    p = PotentialParams.from_molecule(mol, args.q)
    mm = MassModel.from_molecule(mol, args.delta)
    state = QuantumState(args.n, args.l)
    r_hi = args.r_max if args.r_max is not None else p.r_e + 12.0 / p.a
    r_lo = args.r_min
    if r_lo is None:
        r_lo = max(1e-3, p.r_e - 4.0 / p.a)
        pole = mass_pole_radius(mm, p)
        if pole is not None and pole >= r_lo:  # start one grid step outside the pole
            r_lo = pole + (r_hi - pole) / args.points
    if not (0.0 < r_lo < r_hi < math.inf):  # also false for a NaN end
        raise DomainError(f"wavefunction range needs 0 < r_min < r_max < inf, "
                          f"got r_min={r_lo:g}, r_max={r_hi:g}")
    grid = np.linspace(r_lo, r_hi, args.points)
    u, psi = radial_wavefunction(p, mm, state, grid)
    # tuples of floats: the collector untracks them, so a dump's rows never
    # pile up in the oldest generation and trigger full collections
    rows = list(zip(grid.tolist(), u.tolist(), psi.tolist()))
    table = {
        "params": {
            "molecule": mol.name, "q": args.q, "delta": args.delta,
            "n": args.n, "l": args.l, "r_min": r_lo, "r_max": r_hi,
            "points": args.points, "note": "normalization=closed form",
        },
        "columns": ["r_A", "u", "psi"],
        "rows": rows,
    }
    _emit(table, args, stream)
    return 0


def cmd_oracle_compare(args, stream) -> int:
    mol = _resolve_molecule(args.molecule, args.molecule_file)
    p = PotentialParams.from_molecule(mol, args.q)
    mm = MassModel.from_molecule(mol, args.delta)
    cfg = suggest_config(p, mm, args.l, centrifugal_mode=args.centrifugal)
    if args.grid is not None:
        cfg = dataclasses.replace(cfg, grid_points=args.grid)
    spectrum_oracle = solve(p, mm, args.l, cfg)
    closed = (bound_ladder(p, mm, args.l).energy[:args.n_levels] + p.v3).tolist()
    report = compare(closed, spectrum_oracle)
    if args.format == "json":
        stream.write(report.to_json() + "\n")
    else:
        stream.write(
            f"molecule={mol.name} q={args.q} delta={args.delta} l={args.l} "
            f"centrifugal={cfg.centrifugal_mode} "
            f"grid={cfg.grid_points} domain=[{cfg.r_min:.4f},{cfg.r_max:.4f}]\n"
        )
        stream.write(report.to_text() + "\n")
    return 0


def cmd_special_case(args, stream) -> int:
    case_id = args.case.replace("-", "_")
    case_type = special_cases.SPECIAL_CASES[case_id].case_type
    values, flags = {}, {}  # by field name, and by flag name for the params header
    for field in dataclasses.fields(case_type):
        flag = CASE_FLAGS.get(field.name, field.name)
        if getattr(args, flag) is None:
            raise DomainError(f"--case {args.case} requires --{flag}")
        values[field.name] = flags[flag] = getattr(args, flag)
    case = case_type(**values)
    rows = []
    for n in range(args.levels):
        res = special_cases.special_case_spectrum(case_id, case, n)
        energy = res.energy
        non_real = special_cases.is_non_real(res)
        if isinstance(energy, complex):
            rows.append((n, energy.real, energy.imag, res.bound, non_real))
        else:
            rows.append((n, energy, 0.0, res.bound, non_real))
    table = {
        "params": {"case": case_id, **flags},
        "columns": ["n", "Re_E_eV", "Im_E_eV", "bound", "non_real"],
        "rows": rows,
    }
    _emit(table, args, stream)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmorse",
        description="Bound-state energies and wavefunctions of deformed Morse oscillators.",
    )
    parser.add_argument("--show-constants", action="store_true",
                        help="print the three unit constants and exit")
    sub = parser.add_subparsers(dest="command")

    def add_common(sp):
        sp.add_argument("--format", choices=("text", "csv", "json"), default="text")
        sp.add_argument("--output", default=None, help="write to this path instead of stdout")
        sp.add_argument("--digits", type=_positive_int, default=6,
                        help="significant digits (default 6)")
        sp.add_argument("--molecule-file", default=None,
                        help=f"molecule definition file (default: ${ENV_MOLECULE_PATH})")

    sp = sub.add_parser("spectrum", help="closed-form energies over n/l ranges")
    add_common(sp)
    sp.add_argument("--molecule", required=True)
    sp.add_argument("--q", type=float, default=1.0)
    sp.add_argument("--delta", type=float, default=0.0)
    sp.add_argument("--n", required=True, help="comma-separated vibrational numbers")
    sp.add_argument("--l", required=True, help="comma-separated rotational numbers")
    sp.set_defaults(func=cmd_spectrum)

    sp = sub.add_parser(
        "table3",
        help="reproduce the bundled reference energy table and check every cell",
    )
    add_common(sp)
    sp.set_defaults(func=cmd_table3)

    sp = sub.add_parser("nmax", help="bound-state counts and ladder-edge energies")
    add_common(sp)
    sp.add_argument("--molecules", default="H2,LiH,HCl,CO")
    sp.add_argument("--q", type=float, default=1.0)
    sp.add_argument("--full", action="store_true", help="print the full s-wave ladder")
    sp.set_defaults(func=cmd_nmax)

    sp = sub.add_parser("wavefunction", help="dump a sampled radial wavefunction")
    add_common(sp)
    sp.add_argument("--molecule", required=True)
    sp.add_argument("--q", type=float, default=1.0)
    sp.add_argument("--delta", type=float, default=0.0)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--l", type=int, default=0)
    sp.add_argument("--r-min", type=float, default=None)
    sp.add_argument("--r-max", type=float, default=None)
    sp.add_argument("--points", type=_positive_int, default=400)
    sp.set_defaults(func=cmd_wavefunction)

    sp = sub.add_parser("oracle-compare", help="finite-difference check of the closed forms")
    add_common(sp)
    sp.add_argument("--molecule", required=True)
    sp.add_argument("--q", type=float, default=1.0)
    sp.add_argument("--delta", type=float, default=0.0)
    sp.add_argument("--l", type=int, default=0)
    sp.add_argument("--centrifugal", choices=("exact", "pekeris"), default="pekeris")
    sp.add_argument("--grid", type=int, default=None)
    sp.add_argument("--n-levels", type=_positive_int, default=None)
    sp.set_defaults(func=cmd_oracle_compare)

    sp = sub.add_parser("special-case", help="closed forms of the named special wells")
    add_common(sp)
    sp.add_argument("--case", required=True, choices=[
        form for case_id in special_cases.CASE_IDS
        for form in (case_id.replace("_", "-"), case_id)
    ])
    sp.add_argument("--D", type=_finite_float, required=True, help="well scale (eV)")
    sp.add_argument("--alpha", type=_finite_float, default=1.0, help="dimensionless range")
    sp.add_argument("--q", type=_finite_float, default=1.0)
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


def main(argv=None) -> int:
    # argparse keeps no state between parses, so one tree serves every call in
    # the process; keyed on the builder, so a replaced build_parser takes effect
    parser = _parser(build_parser)
    args = parser.parse_args(argv)
    if args.show_constants:
        for key, value in sorted(_constants_dict().items()):
            print(f"{key} = {value!r}")
        return 0
    if not getattr(args, "command", None):
        parser.print_help()
        return 2
    try:
        if getattr(args, "output", None):
            with open(args.output, "w", encoding="utf-8", newline="\n") as handle:
                return args.func(args, handle)
        code = args.func(args, sys.stdout)
        sys.stdout.flush()  # a closed pipe fails here, not in the flush at exit
        return code
    except BrokenPipeError:
        # the reader closed stdout (`| head`): point it at devnull so the flush
        # at exit cannot fail again, and report nothing
        # (https://docs.python.org/3/library/signal.html#note-on-sigpipe)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # numeric or internal failure
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
