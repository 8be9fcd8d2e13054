"""Every public name resolves, and every script imports with every qmorse name it uses.

A removed public name then fails here instead of silently breaking a script;
the names a script imports inside a function are resolved too.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import qmorse

SCRIPTS = sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))


def test_every_public_name_resolves():
    assert [name for name in qmorse.__all__ if not hasattr(qmorse, name)] == []


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda path: path.name)
def test_script_imports(path):
    spec = importlib.util.spec_from_file_location(f"_script_{path.stem}", path)
    spec.loader.exec_module(importlib.util.module_from_spec(spec))  # main() sits under __main__
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("qmorse"):
            owner = importlib.import_module(node.module)
            assert all(hasattr(owner, alias.name) for alias in node.names), ast.unparse(node)
