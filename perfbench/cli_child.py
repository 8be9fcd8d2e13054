"""Traced stand-in for `python -m qmorse.cli`, used by the traced cli_cold run.

    python cli_child.py SPAN_FILE ARGV...

Installs the span recorder, runs ``qmorse.cli.main(ARGV)`` as request 0,
writes the recorder's dump to SPAN_FILE and exits with the CLI's exit code.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import spans  # noqa: E402

if __name__ == "__main__":
    import qmorse.cli

    recorder = spans.Recorder()
    spans.install(recorder)
    code = recorder.request(0, qmorse.cli.main, sys.argv[2:])
    with open(sys.argv[1], "w", encoding="utf-8") as handle:
        json.dump(recorder.dump(), handle)
    sys.exit(code)
