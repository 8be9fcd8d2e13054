"""Golden parity: one sha256 per CLI request (see ``replay.py``)."""
