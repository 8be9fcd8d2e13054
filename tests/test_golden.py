"""Golden parity: every manifest request prints what it printed when recorded.

Each request of ``tests/golden/manifest.json`` (seed 1 of the four benchmark
workloads, the README command lines and the edge requests of
``golden/rewrite.py``) is replayed in process and its digest of exit code,
stdout, stderr, ``--output`` bytes and warnings compared with the recorded
one.  A change that moves any printed digit fails here, naming the request;
an intended change rewrites the manifest with ``golden/rewrite.py``.  The
manifest must list exactly the requests ``rewrite.py`` records, so a README
line or edge request added without a rewrite fails here instead of going
unreplayed.
"""

import sys

from golden import rewrite
from golden.replay import load, replay


def test_every_request_replays_its_recorded_digest(tmp_path):
    requests = load()
    changed = [f"{entry['name']}: qmorse {' '.join(entry['argv'])}" for entry in requests
               if replay(entry["argv"], str(tmp_path)) != entry["sha256"]]
    assert len(requests) > 400
    assert not changed, f"{len(changed)} of {len(requests)} requests changed:\n" + "\n".join(
        changed[:20])


def test_manifest_lists_every_request_rewrite_records(monkeypatch):
    monkeypatch.setattr(sys, "path", [*sys.path])  # requests() puts perfbench/ on it
    recorded = [(entry["name"], entry["argv"]) for entry in load()]
    assert recorded == [(name, list(argv)) for name, argv in rewrite.requests()]
