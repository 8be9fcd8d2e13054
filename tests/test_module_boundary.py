"""Modules of the package reach each other only through public names.

A module that imports another's ``_``-prefixed helper shares its internals:
``wavefunctions`` once repeated the delta routing of ``spectrum`` through
``spectrum._evaluated_mass`` instead of reading the state from
``spectrum_grid``.  The one exception is ``oracle``, which forms the reduced
problem of a request once and hands it to three ``spectrum`` helpers; the
tests that count ``strengths`` calls per request depend on it.  These checks
read the source of every module of the package.
"""
import ast
from pathlib import Path

import pytest

import qmorse

PACKAGE = Path(qmorse.__file__).parent
SOURCES = sorted(PACKAGE.glob("*.py"))
#: (importing module, imported module, name) pairs allowed to cross the boundary
ALLOWED = {("oracle", "spectrum", name)
           for name in ("_bound_prefix", "_evaluated_mass", "_ladder_length")}


def _module(node: ast.ImportFrom) -> str | None:
    """The package module a ``from ... import`` reads, or None outside the package."""
    if node.level == 1:
        return node.module or ""
    if node.module and node.module.split(".")[0] == "qmorse":
        return node.module.partition(".")[2]
    return None


def _private_imports(path):
    """(importing module, imported module, name) for every private name it reaches."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found, modules = set(), {}  # modules: local name -> package module it binds
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (source := _module(node)) is not None:
            for alias in node.names:
                if source == "" and (PACKAGE / f"{alias.name}.py").exists():
                    modules[alias.asname or alias.name] = alias.name
                elif alias.name.startswith("_"):
                    found.add((path.stem, source, alias.name))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and not node.attr.startswith("__")
                and isinstance(node.value, ast.Name) and node.value.id in modules):
            found.add((path.stem, modules[node.value.id], node.attr))
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_module_imports_a_private_name_of_another(path):
    assert _private_imports(path) - ALLOWED == set()


def test_the_allowed_imports_are_what_the_check_finds():
    # the exception is not stale, and the rule above reads oracle's imports
    assert set().union(*map(_private_imports, SOURCES)) == ALLOWED
