"""Small array helpers shared by the spatial joins and the CSR builders."""

from __future__ import annotations

import numpy as np

from .errors import ConfigError

# Items a range expansion (a join's candidate pairs, say) makes at once.
_PAIR_BLOCK = 1 << 16


def sorted_unique(keys) -> np.ndarray:
    """Distinct values of an array, ascending.

    Same result as ``np.unique`` (for -0.0 and 0.0 too) by a sort and an
    adjacent-difference mask; ``np.unique`` hashes integer keys instead,
    which is many times slower on millions of int64 keys.
    """
    keys = np.sort(keys)
    keep = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    return keys[keep]


def index_of(keys, query):
    """Positions of ``query`` in the sorted ``keys``, and which are there.

    Positions are ``searchsorted``'s leftmost insertion points.  Signed
    integer keys that form one contiguous range (DIMACS ids 1..n, say) need
    no search: the position is the query's offset from the first key,
    clipped to 0..len(keys).
    """
    if len(keys) and keys.dtype.kind == query.dtype.kind == "i" and int(keys[-1]) - int(keys[0]) == len(keys) - 1:
        # Clipped before the subtraction, which then cannot overflow.
        pos = np.clip(query, keys[0], keys[-1]) - keys[0] + (query > keys[-1])
    else:
        pos = np.searchsorted(keys, query)
    found = pos < len(keys)
    found[found] = keys[pos[found]] == query[found]
    return pos, found


def frozen(a: np.ndarray) -> np.ndarray:
    """``a``, made read-only; slices of it are read-only views."""
    a.setflags(write=False)
    return a


def concat_ranges(starts, counts) -> np.ndarray:
    """``np.concatenate([np.arange(s, s + c) for s, c in zip(starts, counts)])``
    for int64 arrays."""
    offsets = np.cumsum(counts) - counts
    out = np.repeat(starts - offsets, counts)
    out += np.arange(len(out))
    return out


def range_blocks(starts, counts):
    """``concat_ranges(starts, counts)`` with the range of each item, cut
    into blocks of ``_PAIR_BLOCK`` items in order: yields (row, item) int64
    arrays, and one empty block when there is no item, so the blocks always
    concatenate.  A range may span blocks; a block holds the ranges it
    touches, so one costs O(_PAIR_BLOCK + those ranges)."""
    end = np.cumsum(counts)
    total = int(end[-1]) if len(end) else 0
    if total == 0:
        yield np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    for lo in range(0, total, _PAIR_BLOCK):
        hi = min(lo + _PAIR_BLOCK, total)
        # Items lo .. hi - 1 lie in ranges first .. last; trim those two.
        first, last = int(np.searchsorted(end, lo, "right")), int(np.searchsorted(end, hi - 1, "right"))
        skip = lo - int(end[first] - counts[first])
        size, start = counts[first : last + 1].copy(), starts[first : last + 1].copy()
        size[0] -= skip
        size[-1] -= int(end[last]) - hi
        start[0] += skip
        yield np.repeat(np.arange(first, last + 1), size), concat_ranges(start, size)


def grid_join(query_xy, site_xy, cell):
    """(qi, sj) blocks: every query/site index pair whose cells on the grid
    of side ``cell`` are at most one cell apart in each axis, grouped by
    query, ``_PAIR_BLOCK`` pairs a block (``range_blocks``: at least one).

    Sites are keyed by the ranks of their distinct columns and rows, so the
    keys stay below n^2 whatever the coordinate range; the sites of a query's
    three rows in one column then hold one consecutive key range.  The site
    index is built once, by this call.  Cell coordinates must be exact float
    integers (below 2^53), else ConfigError.
    """
    with np.errstate(over="ignore"):
        q = np.floor(np.asarray(query_xy, dtype=np.float64).reshape(-1, 2) / cell)
        s = np.floor(np.asarray(site_xy, dtype=np.float64).reshape(-1, 2) / cell)
    # Written so that NaN and inf fail the test too.
    if not (np.abs(q).max(initial=0.0) < 2.0**53 and np.abs(s).max(initial=0.0) < 2.0**53):
        raise ConfigError("coordinate range too large for the grid join")
    if len(q) == 0 or len(s) == 0:
        return range_blocks(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
    cols, rows = sorted_unique(s[:, 0]), sorted_unique(s[:, 1])
    skey = np.searchsorted(cols, s[:, 0]) * len(rows) + np.searchsorted(rows, s[:, 1])
    order = np.argsort(skey, kind="stable")
    skey = skey[order]
    row_lo = np.searchsorted(rows, q[:, 1] - 1.0, "left")
    row_hi = np.searchsorted(rows, q[:, 1] + 1.0, "right")
    starts, counts = np.empty((2, len(q), 3), dtype=np.int64)
    for k, dx in enumerate((-1.0, 0.0, 1.0)):
        c = np.searchsorted(cols, q[:, 0] + dx)
        hit = cols[np.minimum(c, len(cols) - 1)] == q[:, 0] + dx
        starts[:, k] = np.searchsorted(skey, c * len(rows) + row_lo)
        counts[:, k] = np.searchsorted(skey, c * len(rows) + row_hi) - starts[:, k]
        counts[~hit, k] = 0
    return ((row // 3, order[item]) for row, item in range_blocks(starts.ravel(), counts.ravel()))


def arcs_csr(n, tail, head):
    """CSR of the directed arcs tail[k] -> head[k] on n vertices.

    Returns (indptr, head, arc): each vertex lists its arcs in arc order,
    and ``arc`` holds their indices.
    """
    arc = np.argsort(tail, kind="stable")
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(tail, minlength=n), out=indptr[1:])
    return indptr, np.asarray(head)[arc], arc


def csr(n, u, v):
    """CSR of the undirected edges (u[k], v[k]) on n vertices.

    Returns (indptr, neighbor, slot).  Each vertex lists its edges in edge
    order, as one pass over the edges appending to both endpoints would;
    ``slot`` is 2k where edge k is seen from u[k] and 2k + 1 where it is
    seen from v[k], so ``slot >> 1`` is the edge index.
    """
    return arcs_csr(n, np.column_stack([u, v]).ravel(), np.column_stack([v, u]).ravel())


def components(n, u, v) -> np.ndarray:
    """Component label of each of n vertices under the undirected edges
    (u[k], v[k]): the smallest vertex id of its component.

    Each round hooks the larger label of every edge joining two labels under
    the smaller one (labels only ever fall), then pointer jumping flattens
    the label forest; it ends when no edge joins two labels.
    """
    u, v = np.asarray(u, dtype=np.int64), np.asarray(v, dtype=np.int64)
    label = np.arange(n, dtype=np.int64)
    while True:
        lu, lv = label[u], label[v]
        differ = lu != lv
        if not differ.any():
            return label
        lu, lv = lu[differ], lv[differ]
        np.minimum.at(label, np.maximum(lu, lv), np.minimum(lu, lv))
        while True:
            jumped = label[label]
            if np.array_equal(jumped, label):
                break
            label = jumped
