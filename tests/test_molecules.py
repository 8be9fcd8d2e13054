import math

import pytest

from qmorse.errors import DomainError
from qmorse.molecules import (
    BUILTIN_NAMES,
    MoleculeRecord,
    builtin,
    load_molecules,
)


def test_builtin_co():
    rec = builtin("CO")
    assert (rec.d0_cm1, rec.a_invA, rec.r0_A, rec.mu_amu) == (90540.0, 2.2994, 1.1283, 6.8606719)


def test_builtin_h2():
    rec = builtin("H2")
    assert (rec.d0_cm1, rec.a_invA, rec.r0_A, rec.mu_amu) == (38266.0, 1.9426, 0.7416, 0.50391)


def test_builtin_lih_hcl():
    lih = builtin("LiH")
    assert (lih.d0_cm1, lih.a_invA, lih.r0_A, lih.mu_amu) == (20287.0, 1.1280, 1.5956, 0.8801221)
    hcl = builtin("hcl")  # case-insensitive
    assert (hcl.d0_cm1, hcl.a_invA, hcl.r0_A, hcl.mu_amu) == (37255.0, 1.8677, 1.2746, 0.9801045)


def test_h2_ref_variant_regenerates_well_depth():
    rec = builtin("H2-ref")
    assert rec.d0_cm1 * 1.23985e-4 == pytest.approx(4.7446, rel=1e-14)
    assert rec.a_invA == 1.9425
    assert rec.mu_amu == 0.50391


def test_unknown_name_lists_available():
    with pytest.raises(DomainError) as excinfo:
        builtin("Xe2")
    message = str(excinfo.value)
    for name in BUILTIN_NAMES:
        assert name in message


def _serialize(records):
    """The records in the molecule-file format, each field by its repr."""
    return "\n\n".join(
        f"name = {rec.name}\nD0_cm1 = {rec.d0_cm1!r}\na_invA = {rec.a_invA!r}\n"
        f"r0_A = {rec.r0_A!r}\nmu_amu = {rec.mu_amu!r}\nsource = {rec.source}"
        for rec in records) + "\n"


def test_round_trip_builtins():
    records = [builtin(n) for n in ("CO", "LiH", "H2", "HCl")]
    loaded = load_molecules(_serialize(records))
    assert loaded == records


def test_empty_document_is_empty_list():
    assert load_molecules("") == []
    assert load_molecules("\n\n# only comments\n") == []


def test_negative_mass_names_field():
    text = "name = X\nD0_cm1 = 100\na_invA = 1.0\nr0_A = 1.0\nmu_amu = -2.0\n"
    with pytest.raises(DomainError, match="mu"):
        load_molecules(text)


def test_missing_field_reported():
    text = "name = X\nD0_cm1 = 100\na_invA = 1.0\nr0_A = 1.0\n"
    with pytest.raises(DomainError, match="mu_amu"):
        load_molecules(text)


def test_duplicate_names_rejected():
    block = "name = X\nD0_cm1 = 100\na_invA = 1.0\nr0_A = 1.0\nmu_amu = 1.0\n"
    with pytest.raises(DomainError, match="duplicate"):
        load_molecules(block + "\n" + block)


def test_parse_error_carries_line_number():
    with pytest.raises(DomainError, match="line 2"):
        load_molecules("name = X\nnot a key value pair\n")


def test_records_are_immutable():
    rec = builtin("CO")
    with pytest.raises(Exception):
        rec.d0_cm1 = 1.0


def test_direct_record_validation():
    with pytest.raises(DomainError, match="r0_A"):
        MoleculeRecord("bad", 1.0, 1.0, -1.0, 1.0)


@pytest.mark.parametrize("field", ["D0_cm1", "a_invA", "r0_A", "mu_amu"])
@pytest.mark.parametrize("value", ["inf", "nan", "1e309", "-inf"])
def test_non_finite_field_in_a_file_is_rejected(field, value):
    fields = {"D0_cm1": "100", "a_invA": "1.0", "r0_A": "1.0", "mu_amu": "1.0", field: value}
    text = "name = X\n" + "".join(f"{key} = {val}\n" for key, val in fields.items())
    with pytest.raises(DomainError, match=f"(?i){field} must be positive and finite"):
        load_molecules(text)


@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_direct_record_rejects_non_finite(value):
    with pytest.raises(DomainError, match="mu_amu"):
        MoleculeRecord("bad", 1.0, 1.0, 1.0, value)
