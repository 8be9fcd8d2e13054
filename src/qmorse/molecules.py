"""Built-in spectroscopic constants and molecule-file ingestion.

The four bundled records carry the published constants verbatim.  A fifth
record, ``H2-ref``, holds the slightly different H2 parameter set that
regenerates the bundled reference energy table exactly; the two H2 sets
disagree at the 2e-4 eV level and both are kept so either convention can be
selected explicitly (see README).

Molecule files are flat key-value blocks, one molecule per block, separated
by blank lines::

    # lithium hydride
    name = LiH
    D0_cm1 = 20287
    a_invA = 1.1280
    r0_A = 1.5956
    mu_amu = 0.8801221

Values are parsed from their decimal text directly (no intermediate lossy
round-trip through config tooling).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError
from .units import UNITS

_REQUIRED_FIELDS = ("name", "D0_cm1", "a_invA", "r0_A", "mu_amu")


@dataclass(frozen=True)
class MoleculeRecord:
    """Spectroscopic constants of a diatomic molecule.

    Attributes:
        name: identifier used for lookups (case-insensitive).
        d0_cm1: well depth in 1/cm.
        a_invA: potential range parameter in 1/Angstrom.
        r0_A: equilibrium separation in Angstrom.
        mu_amu: reduced mass in amu.
        source: citation tag.
    """

    name: str
    d0_cm1: float
    a_invA: float
    r0_A: float
    mu_amu: float
    source: str = "user"

    def __post_init__(self):
        for field in ("d0_cm1", "a_invA", "r0_A", "mu_amu"):
            value = getattr(self, field)
            if not 0.0 < value < math.inf:
                raise DomainError(
                    f"molecule {self.name!r}: {field} must be positive and finite, got {value}")


# Published constants for the four standard molecules.
_BUILTIN = {
    "co": MoleculeRecord("CO", 90540.0, 2.2994, 1.1283, 6.8606719, source="builtin"),
    "lih": MoleculeRecord("LiH", 20287.0, 1.1280, 1.5956, 0.8801221, source="builtin"),
    "h2": MoleculeRecord("H2", 38266.0, 1.9426, 0.7416, 0.50391, source="builtin"),
    "hcl": MoleculeRecord("HCl", 37255.0, 1.8677, 1.2746, 0.9801045, source="builtin"),
}

# H2 parameter set consistent with the bundled reference energies: well depth
# 4.7446 eV and range 1.9425 1/A.  Stored in 1/cm so the record format stays
# uniform; the quotient is exact to double precision.
_BUILTIN["h2-ref"] = MoleculeRecord(
    "H2-ref",
    4.7446 / UNITS.wavenumber_to_eV,
    1.9425,
    0.7416,
    0.50391,
    source="builtin/reference-energy-consistent",
)

BUILTIN_NAMES = ("CO", "LiH", "H2", "HCl", "H2-ref")


def builtin(name: str) -> MoleculeRecord:
    """Look up a built-in molecule by (case-insensitive) name."""
    record = _BUILTIN.get(name.lower())
    if record is None:
        raise DomainError(
            f"unknown molecule {name!r}; available: {', '.join(BUILTIN_NAMES)}"
        )
    return record


def load_molecules(text: str) -> list[MoleculeRecord]:
    """Parse a molecule file into validated records.

    Returns an empty list for an empty document.  Raises DomainError with a
    line diagnostic on parse failure, a missing, non-positive or non-finite
    field, or a duplicate name.
    """
    blocks: list[dict[str, str]] = []
    current: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            if not line and current:
                blocks.append(current)
                current = {}
            continue
        if "=" not in line:
            raise DomainError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key in current:
            raise DomainError(f"line {lineno}: duplicate field {key!r} in block")
        current[key] = value
    if current:
        blocks.append(current)

    records: list[MoleculeRecord] = []
    seen: set[str] = set()
    for block in blocks:
        for field in _REQUIRED_FIELDS:
            if field not in block:
                raise DomainError(f"molecule block missing field {field!r}: {block}")
        numbers = {}
        for field in _REQUIRED_FIELDS[1:]:
            try:
                numbers[field] = float(block[field])
            except ValueError as exc:
                raise DomainError(f"field {field!r}: not a number: {block[field]!r}") from exc
        record = MoleculeRecord(
            name=block["name"],
            d0_cm1=numbers["D0_cm1"],
            a_invA=numbers["a_invA"],
            r0_A=numbers["r0_A"],
            mu_amu=numbers["mu_amu"],
            source=block.get("source", "file"),
        )
        if record.name.lower() in seen:
            raise DomainError(f"duplicate molecule name {record.name!r}")
        seen.add(record.name.lower())
        records.append(record)
    return records

