"""Pairwise edge-crossing detection, classification, and planarization.

Candidate pairs come from a sort-based join on a uniform grid whose cell
is the median segment span: each segment registers the cells it passes
through (column by column for wide ones), the registrations are sorted by
cell, and every two sharing a cell form a pair, deduplicated by sort.  A
segment that would register more than m cells is instead tested against
every segment's bounding box.  With K candidate pairs this costs
O((m + K) log m).  Classification uses float orientation tests with an
exact rational fallback, so the output matches an all-pairs oracle
exactly.  Contacts come as one table of columns, kinded as proper interior
crossings, endpoint touches, and collinear overlaps (never planarized).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import geometry
from ._arrays import concat_ranges, sorted_unique
from .errors import ConfigError, DegeneracyError, InvariantViolation
from .geometry import COLLINEAR_OVERLAP, ENDPOINT_TOUCH, PROPER
from .graphs import GeometricGraph

_PAIR_BLOCK = 1 << 22  # candidate pairs expanded at once by the grid join


class CrossingRecord(NamedTuple):
    """One row of a CrossingTable."""

    e1: int
    e2: int
    point: tuple[float, float]
    level_pair: tuple[int, int]
    kind: str


KINDS = (PROPER, ENDPOINT_TOUCH, COLLINEAR_OVERLAP)  # kind code -> kind


class CrossingTable:
    """Segment contacts as columns, one row per contact.

    ``e1 < e2`` are the two edges (int64), ``(x, y)`` the contact point
    (float64), ``level_lo <= level_hi`` the levels of the two edges (int64)
    and ``kind`` an int8 code into ``KINDS``; they are its only attributes.
    ``len()``, iteration and an integer index give ``CrossingRecord`` rows;
    a mask, an index array or a slice gives a sub-table.
    """

    def __init__(self, e1, e2, x, y, level_lo, level_hi, kind):
        self.e1, self.e2 = np.asarray(e1, np.int64), np.asarray(e2, np.int64)
        self.x, self.y = np.asarray(x, np.float64), np.asarray(y, np.float64)
        self.level_lo, self.level_hi = np.asarray(level_lo, np.int64), np.asarray(level_hi, np.int64)
        self.kind = np.asarray(kind, np.int8)

    def __len__(self):
        return len(self.e1)

    def __iter__(self):
        for e1, e2, x, y, lo, hi, kind in zip(*(c.tolist() for c in vars(self).values())):
            yield CrossingRecord(e1, e2, (x, y), (lo, hi), KINDS[kind])

    def __getitem__(self, index):
        if isinstance(index, (int, np.integer)):
            return next(iter(self[[index]]))
        return CrossingTable(*(c[index] for c in vars(self).values()))


def _table(crossings) -> CrossingTable:
    """A CrossingTable as it is; an iterable of CrossingRecord rows as their table."""
    if isinstance(crossings, CrossingTable):
        return crossings
    rows = [(r.e1, r.e2, *r.point, *r.level_pair, KINDS.index(r.kind)) for r in crossings]
    return CrossingTable(*np.array(rows, dtype=object).reshape(-1, 7).T)


def proper_only(crossings) -> CrossingTable:
    """The proper-crossing rows of a table or of an iterable of rows."""
    t = _table(crossings)
    return t[t.kind == KINDS.index(PROPER)]


def crossing_histogram(crossings) -> dict[tuple[int, int], int]:
    """Counts by unordered hierarchy-level pair; totals match the input."""
    t = _table(crossings)
    if len(t) == 0:
        return {}
    levels = np.concatenate([t.level_lo, t.level_hi])
    base = int(levels.min())
    span = int(levels.max()) - base + 1
    key = (t.level_lo - base) * span + (t.level_hi - base)
    keys = sorted_unique(key)
    counts = np.bincount(np.searchsorted(keys, key), minlength=len(keys))
    pairs = zip((keys // span + base).tolist(), (keys % span + base).tolist())
    return dict(zip(pairs, counts.tolist()))


def _cell_candidates(g: GeometricGraph):
    """(a, b) edge-index arrays of the distinct candidate pairs, a < b, sorted.

    Every pair of segments that touch is among them: segments are joined on
    the grid cells they pass through, and segments too long to register
    their cells are tested against every segment's bounding box instead.
    """
    m = g.m
    x1, y1, x2, y2 = g.segment_arrays()
    *_, cell, owner, long = _segment_grid(x1, y1, x2, y2)
    keys = _same_cell_keys(cell, owner, m)
    (xlo, xhi), (ylo, yhi) = np.sort([x1, x2], axis=0), np.sort([y1, y2], axis=0)
    for i in long:
        hit = (xlo <= xhi[i]) & (xhi >= xlo[i]) & (ylo <= yhi[i]) & (yhi >= ylo[i])
        hit[i] = False
        j = np.flatnonzero(hit)
        keys.append(np.minimum(j, i) * np.int64(m) + np.maximum(j, i))
    if len(keys) > 1:
        keys = [sorted_unique(np.concatenate(keys))]
    return np.divmod(keys[0], m)


def _segment_grid(x1, y1, x2, y2):
    """(h, base, nrow, cell, owner, long): the segments (x1[k], y1[k])-(x2[k],
    y2[k]) on one grid of side h, the median positive span.  A segment
    registers its bounding-box cells or, if sloped and wide, per column the
    rows it spans there padded by one; one that would register more than m
    cells is long and registers none.  ``cell`` holds the sorted keys
    column * nrow + row - base of the registrations, ``owner`` their segments.
    """
    # Left endpoint first, as the column walk runs in increasing x.
    swap = x1 > x2
    ax, ay = np.where(swap, x2, x1), np.where(swap, y2, y1)
    bx, by = np.where(swap, x1, x2), np.where(swap, y1, y2)
    ymin, ymax = np.minimum(ay, by), np.maximum(ay, by)

    spans = np.maximum(bx - ax, ymax - ymin)
    positive = spans[spans > 0]
    h = max(float(np.median(positive)) if len(positive) else 1.0, 1e-12)

    fx0, fx1 = np.floor(ax / h), np.floor(bx / h)
    fy0, fy1 = np.floor(ymin / h), np.floor(ymax / h)
    wide = ((fx1 - fx0) > 1) | ((fy1 - fy0) > 1)
    # A walked segment registers at most 3 rows per column plus one per row it
    # climbs; past m = len(x1) cells, testing all m bounding boxes is cheaper.
    long = wide & (3.0 * (fx1 - fx0 + 1.0) + (fy1 - fy0) + 2.0 > len(x1))
    reg = np.flatnonzero(~long)
    if len(reg):
        c0, c1, r0, r1 = (f[reg] for f in (fx0, fx1, fy0, fy1))
        # Rows stray at most two past the box, so this bounds every int64 key.
        extent = (max(-c0.min(), c1.max()) + 1.0) * (r1.max() - r0.min() + 5.0)
        if max(-r0.min(), r1.max()) >= 2.0**61 or extent >= 2.0**62:
            raise ConfigError("coordinate range too large for the crossing grid")

    cx0 = fx0[reg].astype(np.int64)
    ncol = fx1[reg].astype(np.int64) - cx0 + 1
    owner, col = np.repeat(reg, ncol), concat_ranges(cx0, ncol)
    row_lo, row_hi = fy0[owner].astype(np.int64), fy1[owner].astype(np.int64)
    walk = wide[owner] & (ax[owner] != bx[owner])
    e, c = owner[walk], col[walk]
    slope = (by[e] - ay[e]) / (bx[e] - ax[e])
    # Two ulps wider a side, column c's x-range holds every x with floor(x / h) = c.
    lo, hi = c * h - 2 * np.spacing(np.abs(c * h)), (c + 1) * h + 2 * np.spacing(np.abs((c + 1) * h))
    ya = ay[e] + slope * (np.maximum(ax[e], lo) - ax[e])
    yb = ay[e] + slope * (np.minimum(bx[e], hi) - ax[e])
    row_lo[walk] = np.floor(np.minimum(ya, yb) / h).astype(np.int64) - 1
    row_hi[walk] = np.floor(np.maximum(ya, yb) / h).astype(np.int64) + 1

    nrow = row_hi - row_lo + 1
    base, top = (int(row_lo.min()), int(row_hi.max())) if len(reg) else (0, 0)
    cell = np.repeat(col * (top - base + 1), nrow)
    cell += concat_ranges(row_lo - base, nrow)
    order = np.argsort(cell)
    return h, base, top - base + 1, cell[order], np.repeat(owner, nrow)[order], np.flatnonzero(long)


def _same_cell_keys(cell, owner, m):
    """Keys a * m + b (a < b) of the owner pairs sharing a cell of the sorted
    ``cell``, as a list of sorted distinct blocks (a pair may recur across them)."""
    first = np.flatnonzero(np.diff(cell, prepend=cell[:1] - 1))
    count = np.diff(first, append=len(cell))
    pos = np.arange(len(cell))
    # Each registration pairs with every later one in its cell.
    later = np.repeat(first + count, count) - pos - 1
    # Expand about _PAIR_BLOCK pairs at a time and deduplicate each block, so
    # the copies of a pair that shares several cells never all exist at once.
    done = np.cumsum(later)
    total = int(done[-1]) if len(done) else 0
    cuts = np.searchsorted(done, np.arange(_PAIR_BLOCK, total, _PAIR_BLOCK))
    blocks = []
    for p, k in zip(np.split(pos, cuts), np.split(later, cuts)):
        a = owner[np.repeat(p, k)]
        b = owner[concat_ranges(p + 1, k)]
        keys = np.minimum(a, b)
        keys *= m
        keys += np.maximum(a, b, out=a)
        blocks.append(sorted_unique(keys))
    return blocks


def find_crossings(g: GeometricGraph) -> CrossingTable:
    """All pairwise segment contacts, canonically ordered by (e1, e2), e1 < e2.

    Proper crossings are pairs whose open segments intersect at a single
    interior point; pairs sharing a graph vertex are never proper and are
    reported only when they overlap collinearly (a data error).
    """
    e1, e2, kind, x, y = _contacts(g, *_cell_candidates(g))
    lv1, lv2 = g.edge_level[e1], g.edge_level[e2]
    return CrossingTable(e1, e2, x, y, np.minimum(lv1, lv2), np.maximum(lv1, lv2), kind)


def _contacts(g: GeometricGraph, a, b, junctions: bool = True):
    """Classify the candidate pairs (a[i], b[i]); return the (e1, e2, kind
    code, x, y) arrays of those in contact, in candidate order.

    Pairs sharing a graph vertex are never proper; they are kept only when
    they overlap collinearly, and with junctions=False they are dropped
    before the orientation tests.
    """
    x1, y1, x2, y2 = g.segment_arrays()
    xlo, xhi = np.minimum(x1, x2), np.maximum(x1, x2)
    ylo, yhi = np.minimum(y1, y2), np.maximum(y1, y2)
    overlap = (xhi[a] >= xlo[b]) & (xhi[b] >= xlo[a]) & (yhi[a] >= ylo[b]) & (yhi[b] >= ylo[a])
    a, b = a[overlap], b[overlap]
    u, v = g.edge_u, g.edge_v
    shared = (u[a] == u[b]) | (u[a] == v[b]) | (v[a] == u[b]) | (v[a] == v[b])
    # At a shared vertex only a collinear overlap is a contact, and that
    # needs the segments to overlap in more than a point.
    keep = ~shared
    if junctions:
        keep |= (np.minimum(xhi[a], xhi[b]) > np.maximum(xlo[a], xlo[b])) | (
            np.minimum(yhi[a], yhi[b]) > np.maximum(ylo[a], ylo[b])
        )
    a, b, shared = a[keep], b[keep], shared[keep]
    coords = ax, ay, bx, by, cx, cy, dx, dy = x1[a], y1[a], x2[a], y2[a], x1[b], y1[b], x2[b], y2[b]
    orient = geometry.orient_filtered
    o1, o2 = orient(ax, ay, bx, by, cx, cy), orient(ax, ay, bx, by, dx, dy)
    o3, o4 = orient(cx, cy, dx, dy, ax, ay), orient(cx, cy, dx, dy, bx, by)
    ab, cd = o1 * o2, o3 * o4
    opposite = (ab < 0) & (cd < 0)
    # The exact test decides what the filter cannot; a shared pair goes to
    # it only when all four orientations may be zero.
    collinear = (o1 == 0) & (o2 == 0) & (o3 == 0) & (o4 == 0)
    ambiguous = np.where(shared, collinear, ~(opposite | (ab > 0) | (cd > 0)))

    kind = np.where(opposite & ~shared, KINDS.index(PROPER), -1).astype(np.int8)
    x, y = np.empty(len(a)), np.empty(len(a))
    idx = np.flatnonzero(kind >= 0)
    x[idx], y[idx] = geometry.intersection_point(*(c[idx] for c in coords))
    for row in np.flatnonzero(ambiguous).tolist():
        found, point = geometry.segment_contact(*(float(c[row]) for c in coords))
        if found is not None and (found == COLLINEAR_OVERLAP or not shared[row]):
            kind[row] = KINDS.index(found)
            x[row], y[row] = point
    hit = np.flatnonzero(kind >= 0)
    return a[hit], b[hit], kind[hit], x[hit], y[hit]


@dataclass(frozen=True, eq=False)
class PlanarizedGraph:
    """Input graph with every proper crossing promoted to a degree-4 vertex.

    ``crossing_vertices`` holds the proper crossings, row i as vertex base.n + i.
    ``split_edges`` are offsets: base edge e became the chain of sub-edges
    split_edges[e] .. split_edges[e + 1] - 1, running from its u to its v end.
    """

    graph: GeometricGraph
    base: GeometricGraph
    crossing_vertices: CrossingTable
    split_edges: np.ndarray


def planarize(g: GeometricGraph, crossings) -> PlanarizedGraph:
    """Split edges at their proper crossing points.

    ``crossings`` is a CrossingTable or an iterable of its rows, in (e1, e2)
    order as ``find_crossings`` gives them.  Crossing vertices get fresh ids
    n, n+1, ... in row order; each split edge becomes a chain of collinear
    sub-edges whose weights divide the original weight proportionally to arc
    length.  Collinear overlaps are unsupported degeneracies.  An exact
    crossing search on the result must find no proper crossing.
    """
    table = _table(crossings)
    overlaps = np.flatnonzero(table.kind == KINDS.index(COLLINEAR_OVERLAP))
    if len(overlaps):
        i = overlaps[0]
        raise DegeneracyError(
            f"collinear overlapping edges ({table.e1[i]}, {table.e2[i]}) cannot be planarized"
        )
    proper = proper_only(table)

    n, m = g.n, g.m
    pts = np.column_stack([proper.x, proper.y])
    # One cut per (crossing, edge), crossing-major: e1's cut, then e2's.
    edge = np.column_stack([proper.e1, proper.e2]).ravel()
    vid = np.repeat(np.arange(n, n + len(proper)), 2)
    u, v = g.xy[g.edge_u[edge]], g.xy[g.edge_v[edge]]
    # Squares go through libm pow (float_power), as ``x ** 2`` on a numpy
    # scalar does; x * x rounds differently for some x, which would move t
    # and the sub-edge weights by an ulp.
    ln2 = np.float_power(v - u, 2).sum(axis=1)
    t = ((np.repeat(pts, 2, axis=0) - u) * (v - u)).sum(axis=1) / ln2
    bad = np.flatnonzero(~((t > 0.0) & (t < 1.0)))
    if len(bad):
        i = bad[0] // 2
        raise DegeneracyError(
            f"crossing ({proper.e1[i]}, {proper.e2[i]}) lies numerically on an endpoint"
        )

    # Cuts along each edge by (t, crossing id); equal t is a concurrency.
    order = np.lexsort((vid, t, edge))
    edge, t, vid = edge[order], t[order], vid[order]
    tied = np.flatnonzero((edge[1:] == edge[:-1]) & (t[1:] == t[:-1]))
    if len(tied):
        raise DegeneracyError(f"concurrent crossings on edge {int(edge[tied[0]])}")

    # Edge e becomes sub-edges off[e] .. off[e + 1] - 1; the j-th cut in
    # this order ends sub-edge edge[j] + j and starts the next one.
    off = np.arange(m + 1) + np.searchsorted(edge, np.arange(m + 1))
    owner = np.repeat(np.arange(m), np.diff(off))
    end = edge + np.arange(len(edge))
    eu, ev = np.empty((2, off[-1]), dtype=np.int64)
    t0, t1 = np.empty((2, off[-1]))
    eu[off[:-1]], t0[off[:-1]] = g.edge_u, 0.0
    ev[off[1:] - 1], t1[off[1:] - 1] = g.edge_v, 1.0
    ev[end], t1[end] = vid, t
    eu[end + 1], t0[end + 1] = vid, t

    graph = GeometricGraph(
        np.concatenate([g.xy, pts]), eu, ev,
        g.edge_weight[owner] * (t1 - t0), g.edge_level[owner],
        meta={"planarized_from": g.meta.get("source", "graph")},
    )
    a, b, kind, _, _ = _contacts(graph, *_cell_candidates(graph), junctions=False)
    left = kind == KINDS.index(PROPER)
    if left.any():
        raise _leftover_error(g, owner[a[left]], owner[b[left]])
    return PlanarizedGraph(graph, g, proper, off)


def _leftover_error(g: GeometricGraph, a, b):
    """The error for proper crossings left between sub-edges of the base
    edges a[k], b[k].  When no such base pair properly crosses, judged
    exactly, rounded crossing vertices bent a sub-edge across an edge it
    only touched: a DegeneracyError naming the first pair.  Otherwise a
    crossing was missed: an InvariantViolation."""
    x1, y1, x2, y2 = g.segment_arrays()
    pairs = list(zip(a.tolist(), b.tolist()))
    for e, f in pairs:
        kind, _ = geometry.segment_contact(x1[e], y1[e], x2[e], y2[e], x1[f], y1[f], x2[f], y2[f])
        if kind == PROPER:
            return InvariantViolation(f"planarization left {len(pairs)} proper crossings")
    e, f = sorted(pairs[0])
    return DegeneracyError(
        f"rounded crossing vertices make edges ({e}, {f}) cross after planarization"
    )
