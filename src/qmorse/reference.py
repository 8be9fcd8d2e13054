"""The bundled reference energy table: ``table3`` checks it, and
``scripts/derive_h2_reference_params.py`` fits the H2-ref parameters to it.

Values are stored as printed strings so each cell keeps its own precision;
``cell_tolerance`` converts a cell into the matching absolute tolerance (one
unit in the last printed digit).  All energies are -E in eV for the plain
Morse well (q = 1, offset-free convention).

The H2 block is regenerated exactly by the ``H2-ref`` parameter set, not by
the published H2 spectroscopic row (see README and scripts/derive_h2_reference_params.py).
"""

from __future__ import annotations

#: molecule -> {(n, l) -> printed -E in eV}
REFERENCE_MINUS_E: dict[str, dict[tuple[int, int], str]] = {
    "H2": {
        (0, 0): "4.47601", (0, 5): "4.25880", (0, 10): "3.72194",
        (5, 0): "2.22052", (5, 5): "2.04355", (5, 10): "1.60391",
        (7, 0): "1.53744", (7, 5): "1.37656", (7, 10): "0.97581",
    },
    "LiH": {
        (0, 0): "2.42886", (0, 5): "2.40133", (0, 10): "2.32884",
        (5, 0): "1.64771", (5, 5): "1.62377", (5, 10): "1.56074",
        (7, 0): "1.37756", (7, 5): "1.35505", (7, 10): "1.29580",
    },
    "CO": {
        (0, 0): "11.0915", (0, 5): "11.0844", (0, 10): "11.0653",
        (5, 0): "9.79518", (5, 5): "9.78833", (5, 10): "9.77009",
        (7, 0): "9.29918", (7, 5): "9.29246", (7, 10): "9.27455",
    },
    "HCl": {
        (0, 0): "4.43556", (0, 5): "4.39682", (0, 10): "4.29408",
        (5, 0): "2.80506", (5, 5): "2.77209", (5, 10): "2.68471",
        (7, 0): "2.25701", (7, 5): "2.22634", (7, 10): "2.14511",
    },
}

#: molecule used for each block when reproducing the table; H2 needs the
#: reference-consistent parameter variant.
TABLE_MOLECULE: dict[str, str] = {
    "H2": "H2-ref",
    "LiH": "LiH",
    "CO": "CO",
    "HCl": "HCl",
}


def cell_decimals(printed: str) -> int:
    return len(printed.split(".")[1]) if "." in printed else 0


def cell_tolerance(printed: str) -> float:
    """Absolute tolerance of one unit in the cell's last printed digit."""
    return 10.0 ** (-cell_decimals(printed))


def cell_matches(computed_minus_e: float, printed: str) -> bool:
    """Last-printed-digit agreement: round to the cell's precision, allow +-1."""
    d = cell_decimals(printed)
    return abs(round(computed_minus_e, d) - float(printed)) <= cell_tolerance(printed) * (1 + 1e-9)
