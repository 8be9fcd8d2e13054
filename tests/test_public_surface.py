"""Every public name resolves, and every script imports and runs.

A removed public name, or a changed signature, then fails here instead of
silently breaking a script; the names a script imports inside a function are
resolved too.  Each script runs as its own process with its default arguments:
it must exit 0, write nothing to stderr and print what ``SCRIPT_OUTPUT`` expects.
"""

import ast
import importlib
import importlib.util
import inspect
import json
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import qmorse

SCRIPTS = sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))


def _load(path):
    spec = importlib.util.spec_from_file_location(f"_script_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # main() sits under __main__
    return module


def _modules():
    return [qmorse] + [importlib.import_module(f"qmorse.{info.name}")
                       for info in pkgutil.iter_modules(qmorse.__path__)]


def test_every_public_name_resolves():
    # the package's __all__ and every submodule's: a stale export fails here
    exporting = [module for module in _modules() if hasattr(module, "__all__")]
    stale = [f"{module.__name__}.{name}"
             for module in exporting for name in module.__all__ if not hasattr(module, name)]
    assert len(exporting) > 1 and stale == []


def _callables(module):
    """The functions a module defines, and the methods (constructors too) of its classes."""
    for obj in vars(module).values():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield obj
        elif inspect.isclass(obj):
            for attr in vars(obj).values():
                attr = getattr(attr, "__func__", getattr(attr, "fget", attr))
                if inspect.isfunction(attr):
                    yield attr


def test_no_signature_takes_a_unit_system():
    # the package has one pinned unit system, UNITS: no function takes another
    modules = _modules()[1:]
    offenders = [f"{module.__name__}.{obj.__qualname__}"
                 for module in modules for obj in _callables(module)
                 if "units" in inspect.signature(obj).parameters]
    assert len(modules) > 10 and offenders == []


def test_closed_form_takes_no_molecule():
    # the closed forms take a (PotentialParams, MassModel) pair: no function
    # of theirs takes a molecule, and the evaluator does not import its type
    modules = [importlib.import_module(f"qmorse.{name}")
               for name in ("spectrum", "wavefunctions", "oracle", "special_cases")]
    offenders = [f"{module.__name__}.{obj.__qualname__}"
                 for module in modules for obj in _callables(module)
                 for param in inspect.signature(obj).parameters.values()
                 if "MoleculeRecord" in str(param.annotation)]  # a class, or a string
    assert offenders == []
    assert not hasattr(modules[0], "MoleculeRecord")


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda path: path.name)
def test_script_imports(path):
    _load(path)
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("qmorse"):
            owner = importlib.import_module(node.module)
            assert all(hasattr(owner, alias.name) for alias in node.names), ast.unparse(node)


def _names_a_winner(out):
    return any(line.startswith("winner: ") for line in out.splitlines())


def _prints_the_csv_table(out):
    rows = [line for line in out.splitlines() if not line.startswith("#")]
    missing = [line for line in out.splitlines() if line.startswith("# missing")]
    return (rows[0] == "n,l,closed_form_eV,exact_oracle_eV,deviation_eV" and len(rows) == 17
            and missing == ["# missing (n, l) = (0, 20), (3, 20), (5, 20), (7, 20): "
                            "the exact-mode oracle found 0 levels"])


#: what each script's default run must print; a new script needs its entry
SCRIPT_OUTPUT = {
    "derive_h2_reference_params.py": _names_a_winner,
    # 4 n x 4 l, and a comment for the l = 20 block: on its uniform r grid the
    # exact-mode oracle finds no level there
    "pekeris_validity.py": _prints_the_csv_table,
}


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda path: path.name)
def test_script_runs(path):
    proc = subprocess.run([sys.executable, str(path)], capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    assert SCRIPT_OUTPUT[path.name](proc.stdout), proc.stdout


def test_ci_workflow_runs_the_tier1_line():
    # the workflow cannot run here: check its command is ROADMAP's tier-1 line on 3.11
    root = Path(__file__).resolve().parents[1]
    tier1 = re.search(r"\*\*Tier-1 verify:\*\* `([^`]*)`",
                      (root / "ROADMAP.md").read_text(encoding="utf-8")).group(1)
    workflow = (root / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8")
    assert f"run: {tier1}\n" in workflow
    assert 'python-version: "3.11"' in workflow
    # the pip downloads are cached, keyed on the file that lists the dependencies
    assert ('      - uses: actions/setup-python@v5\n        with:\n'
            '          python-version: "3.11"\n          cache: pip\n'
            '          cache-dependency-path: pyproject.toml\n') in workflow
    # a hung subprocess or FIFO test fails the job instead of holding a runner for 6 h
    assert "  tier1:\n    runs-on: ubuntu-latest\n    timeout-minutes: 20\n" in workflow
    # a newer push cancels the superseded run on its ref; every head commit is still tested
    assert "\nconcurrency:\n  group: tier1-${{ github.ref }}\n  cancel-in-progress: true\n" \
        in workflow
    # then no test may have written into the checkout
    clean = 'run: git status --porcelain && test -z "$(git status --porcelain)"\n'
    assert workflow.index(f"run: {tier1}\n") < workflow.index(clean)
    # between them, every benchmark workload's own output checks must read correct
    workloads = [w["name"] for w in
                 json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]]
    step = " ".join(workflow[workflow.index(f"run: {tier1}\n"):workflow.index(clean)].split())
    # the report goes to a file outside the checkout, printed whole when the check fails
    assert ("shell: bash run: | "  # GitHub runs a bash step with -eo pipefail
            f"for workload in {' '.join(workloads)}; do "
            'report="$RUNNER_TEMP/perfbench-$workload.txt" '
            'python3 perfbench/run.py --workload "$workload" --seconds 2 --trace 0 > "$report" \\ '
            "&& python3 -c 'import json, sys; sys.exit(json.loads(open(sys.argv[1]).readlines()[-1])"
            """["correct"] is not True)' "$report" \\ """
            '|| { cat "$report"; echo "perfbench $workload: output checks failed"; exit 1; } '
            "done") in step
