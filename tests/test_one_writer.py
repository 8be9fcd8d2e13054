"""One writer for what the CLI puts out.

Every byte the ``qmorse`` CLI puts on stdout or into an ``--output`` file
leaves through ``cli._write``, which writes the file descriptor until every
byte is taken and whose errors ``main`` maps to the documented exit codes.
A second writer (a ``print``, argparse's ``print_help``, an ``open`` for
writing) would fail in its own way on a closed pipe or a full disk.  These
checks read the source of every module of the package.
"""
import ast
from pathlib import Path

import pytest

import qmorse

SOURCES = sorted(Path(qmorse.__file__).parent.glob("*.py"))
CLI = Path(qmorse.__file__).parent / "cli.py"
#: calls that put bytes out past the rendered text
WRITER_CALLS = {"os.open", "os.write", "os.fdopen", "os.dup2"}
WRITER_METHODS = (".print_help", ".print_usage", ".write_text", ".write_bytes")


def _nodes(path):
    """(name of the innermost enclosing function or None, node) for every node."""
    def walk(node, function):
        for child in ast.iter_child_nodes(node):
            inner = function
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = child.name
            yield inner, child
            yield from walk(child, inner)
    return list(walk(ast.parse(path.read_text(encoding="utf-8")), None))


def _dotted(node):
    """``a.b.c`` for a chain of names and attributes, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return base and f"{base}.{node.attr}"
    return None


def _open_mode(call):
    mode = call.args[1] if len(call.args) > 1 else next(
        (kw.value for kw in call.keywords if kw.arg == "mode"), ast.Constant("r"))
    return mode.value if isinstance(mode, ast.Constant) else None


def _writes(node):
    """How the node reaches stdout or a file for writing, or None."""
    if _dotted(node) in ("sys.stdout", "sys.__stdout__"):
        return _dotted(node)
    if isinstance(node, ast.ImportFrom) and node.module == "sys" and any(
            alias.name in ("stdout", "__stdout__") for alias in node.names):
        return "from sys import stdout"
    if not isinstance(node, ast.Call):
        return None
    func = _dotted(node.func) or ""
    if func in WRITER_CALLS or func.endswith(WRITER_METHODS):
        return func
    if func == "open" and (_open_mode(node) is None or set(_open_mode(node)) & set("wax+")):
        return "open for writing"
    return None


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_print_goes_only_to_stderr(path):
    prints = [f"{path.name}:{node.lineno}" for _, node in _nodes(path)
              if isinstance(node, ast.Call) and _dotted(node.func) == "print"
              and [_dotted(kw.value) for kw in node.keywords if kw.arg == "file"]
              != ["sys.stderr"]]
    assert prints == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_only_cli_write_writes_stdout_or_a_file(path):
    found = [f"{path.name}:{node.lineno} {what}" for function, node in _nodes(path)
             if (what := _writes(node)) and (path != CLI or function != "_write")]
    assert found == []


def test_cli_write_is_what_the_check_finds():
    # the rule above reads _write's own writes, so it is not empty by mistake
    found = {_writes(node) for function, node in _nodes(CLI) if function == "_write"}
    assert {"sys.stdout", "os.open", "os.write"} <= found
