"""Replay one CLI request in process and hash everything it produced.

A request's digest is the sha256 of its exit code, stdout, stderr, the bytes
of its ``--output`` file (relative paths land in the working directory given)
and the Python warnings it issued, so a one-ulp change in any printed number,
a changed exit code or a new warning changes the digest.  ``manifest.json``
holds the argv and the digest of every golden request; ``rewrite.py``
regenerates it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import warnings
from pathlib import Path

from qmorse.cli import main

MANIFEST = Path(__file__).resolve().parent / "manifest.json"


def replay(argv: list[str], workdir: str) -> str:
    """The digest of ``qmorse.cli.main(argv)`` run in ``workdir``."""
    path = argv[argv.index("--output") + 1] if "--output" in argv else None
    out, err = io.StringIO(), io.StringIO()
    start = os.getcwd()
    os.chdir(workdir)
    try:
        if path is not None and os.path.exists(path):
            os.remove(path)
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = main(argv)
        output = None
        if path is not None and os.path.exists(path):
            with open(path, "rb") as handle:
                output = handle.read().decode("utf-8")
    finally:
        os.chdir(start)
    issued = [f"{w.category.__name__}: {w.message}" for w in caught]
    record = json.dumps([code, out.getvalue(), err.getvalue(), output, issued])
    return hashlib.sha256(record.encode("utf-8")).hexdigest()


def load() -> list[dict]:
    """The manifest's requests: each a dict of ``name``, ``argv`` and ``sha256``."""
    return json.loads(MANIFEST.read_text(encoding="utf-8"))["requests"]
