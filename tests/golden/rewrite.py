"""Regenerate the golden manifest: every request's argv and digest.

    PYTHONPATH=src:tests python -m golden.rewrite

Run from the repository root.  The requests are seed 1 of each benchmark
workload (``perfbench/workloads.py``), the command lines of the README's
"Command line" block, and ``EDGE``; a request listed twice keeps its first
name.  Rewriting the manifest accepts every output as it is now: list the
requests whose digest changed, and why, in CHANGES.md.
"""

from __future__ import annotations

import json
import re
import sys
import tempfile
from pathlib import Path

from golden.replay import MANIFEST, replay

ROOT = Path(__file__).resolve().parents[2]
SEED = 1

#: corners the workloads do not reach: the nmax NaN sentinel, every special
#: well, both oracle report formats, extreme digits, overflows, domain errors
EDGE = (
    *(f"nmax --q -0.5 --format {fmt}" for fmt in ("text", "csv", "json")),
    *(f"nmax --molecules H2,CO --q -0.5 --format {fmt}" for fmt in ("text", "csv", "json")),
    *(f"{case} --format {fmt}" for case in (
        "special-case --case generalized-vibrational --D 4.7446 --alpha 1.44 --q 1.0"
        " --mu 0.50391 --re 0.7416 --levels 3",
        "special-case --case non-pt --D 2.0 --dhat 1.5 --mu 0.9 --re 1.2",
        "special-case --case pt-type1 --D 2.0 --dhat 1.5 --mu 0.9 --re 1.2 --levels 4",
        "special-case --case pt-type2 --D 2.0 --omega 0.7 --alpha 1.3 --mu 0.9 --re 1.2",
    ) for fmt in ("text", "csv", "json")),
    "oracle-compare --molecule H2 --delta 0.3 --l 5",
    "oracle-compare --molecule H2 --delta 0.3 --l 5 --format json",
    "oracle-compare --molecule H2-ref --l 0 --grid 1500 --format json",
    *(f"table3 --digits {digits} --format {fmt}" for digits in (3, 17)
      for fmt in ("text", "csv", "json")),
    *(f"spectrum --molecule CO --q 1 --delta 0.3 --n 0,10,50 --l 0,7 --format {fmt}"
      for fmt in ("text", "csv", "json")),
    "spectrum --molecule H2 --q 1e300 --n 0 --l 0",
    "spectrum --molecule H2 --delta 1.5 --n 0 --l 0",
    "spectrum --molecule Xe2 --n 0 --l 0",
    "nmax --full --format json",
    "nmax --molecules , --q 1",
    "nmax --molecules H2 --q 1e16",
    "wavefunction --molecule LiH --n 3 --l 2 --delta 0.5 --points 50 --format json",
    "wavefunction --molecule H2 --n 1 --delta 1e-10 --points 20",
    "special-case --case generalized-vibrational --D 1 --alpha 1e-200 --q 1 --mu 0.9 --re 1",
    "special-case --case non-pt --D 1 --dhat 1.5 --mu 0.9 --re 1e200",
)


def readme_lines() -> list[str]:
    """The ``qmorse ...`` lines of the README's "Command line" block, comments dropped."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## Command line\n+```bash\n(.*?)^```", text, re.DOTALL | re.MULTILINE)
    return [line.split("#")[0].split(maxsplit=1)[1].strip()
            for line in block.group(1).splitlines() if line.startswith("qmorse ")]


def requests() -> list[tuple[str, list[str]]]:
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    named = [(f"{workload}/{i}", argv) for workload in workloads.WORKLOADS
             for i, argv in enumerate(workloads.generate(workload, SEED))]
    named += [(f"readme/{i}", line.split()) for i, line in enumerate(readme_lines())]
    named += [(f"edge/{i}", line.split()) for i, line in enumerate(EDGE)]
    seen, unique = set(), []
    for name, argv in named:
        if tuple(argv) not in seen:
            seen.add(tuple(argv))
            unique.append((name, argv))
    return unique


def main() -> None:
    with tempfile.TemporaryDirectory() as workdir:
        entries = [{"name": name, "argv": argv, "sha256": replay(argv, workdir)}
                   for name, argv in requests()]
    lines = ",\n".join(json.dumps(entry) for entry in entries)  # one request a line
    MANIFEST.write_text(f'{{"requests": [\n{lines}\n]}}\n', encoding="utf-8")
    print(f"{len(entries)} requests -> {MANIFEST.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
