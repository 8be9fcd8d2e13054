"""Interior nodes of a sampled profile."""

import numpy as np


def node_count(values) -> int:
    """Interior sign changes of a sampled profile, ignoring samples below 1e-9 of its peak."""
    arr = np.asarray(values, dtype=float)
    scale = np.max(np.abs(arr))
    if scale == 0.0:
        return 0
    signs = np.sign(arr[np.abs(arr) > 1e-9 * scale])
    return int(np.sum(signs[1:] * signs[:-1] < 0))
