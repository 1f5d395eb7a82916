"""Small array helpers shared by the spatial joins."""

from __future__ import annotations

import numpy as np


def sorted_unique(keys) -> np.ndarray:
    """Distinct values of an integer array, ascending.

    Same result as ``np.unique`` for integer keys, by a sort and an
    adjacent-difference mask; ``np.unique`` hashes instead, which is many
    times slower on millions of int64 keys.
    """
    keys = np.sort(keys)
    keep = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    return keys[keep]


def concat_ranges(starts, counts) -> np.ndarray:
    """``np.concatenate([np.arange(s, s + c) for s, c in zip(starts, counts)])``
    for int64 arrays."""
    offsets = np.cumsum(counts) - counts
    out = np.repeat(starts - offsets, counts)
    out += np.arange(len(out))
    return out
