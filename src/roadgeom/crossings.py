"""Pairwise edge-crossing detection, classification, and planarization.

Candidate pairs come from a sort-based join on a uniform grid whose cell
is the median segment span: each segment registers the cells it passes
through (column by column for wide ones), the registrations are sorted by
cell, and every two sharing a cell form a pair, deduplicated by sort.  A
segment that would register more than m cells is instead tested against
every segment's bounding box.  With K candidate pairs this costs
O((m + K) log m).  Classification uses float orientation tests with an
exact rational fallback, so the output matches an all-pairs oracle
exactly.  Contacts are kinded: proper interior crossings, endpoint
touches, and collinear overlaps (reported, never planarized).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import geometry
from ._arrays import concat_ranges, sorted_unique
from .errors import ConfigError, DegeneracyError, InvariantViolation
from .geometry import COLLINEAR_OVERLAP, PROPER
from .graphs import GeometricGraph

_EPS = geometry._ORIENT_EPS
_PAIR_BLOCK = 1 << 22  # candidate pairs expanded at once by the grid join


@dataclass(frozen=True)
class CrossingRecord:
    e1: int
    e2: int
    point: tuple[float, float]
    level_pair: tuple[int, int]
    kind: str


def proper_only(records) -> list[CrossingRecord]:
    return [r for r in records if r.kind == PROPER]


def crossing_histogram(records) -> dict[tuple[int, int], int]:
    """Counts by unordered hierarchy-level pair; totals match the input."""
    return dict(Counter(r.level_pair for r in records))


def _cell_candidates(g: GeometricGraph):
    """(a, b) edge-index arrays of the distinct candidate pairs, a < b, sorted.

    Every pair of segments that touch is among them: segments are joined on
    the grid cells they pass through, and segments too long to register
    their cells are tested against every segment's bounding box instead.
    """
    m = g.m
    x1, y1, x2, y2 = g.segment_arrays()
    # Left endpoint first, as the column walk runs in increasing x.
    swap = x1 > x2
    ax, ay = np.where(swap, x2, x1), np.where(swap, y2, y1)
    bx, by = np.where(swap, x1, x2), np.where(swap, y1, y2)
    ymin = np.minimum(ay, by)
    ymax = np.maximum(ay, by)

    spans = np.maximum(bx - ax, ymax - ymin)
    positive = spans[spans > 0]
    h = max(float(np.median(positive)) if len(positive) else 1.0, 1e-12)

    fx0, fx1 = np.floor(ax / h), np.floor(bx / h)
    fy0, fy1 = np.floor(ymin / h), np.floor(ymax / h)
    wide = ((fx1 - fx0) > 1) | ((fy1 - fy0) > 1)
    # A walked segment registers at most 3 rows per column plus one per row
    # it climbs; one whose bound exceeds m is cheaper to test against all m
    # bounding boxes than to walk.
    long = wide & (3.0 * (fx1 - fx0 + 1.0) + (fy1 - fy0) + 2.0 > m)
    reg = np.flatnonzero(~long)
    if len(reg):
        c0, c1, r0, r1 = (f[reg] for f in (fx0, fx1, fy0, fy1))
        # Rows stray at most two past the box, so this bounds every int64 key.
        extent = (max(-c0.min(), c1.max()) + 1.0) * (r1.max() - r0.min() + 5.0)
        if max(-r0.min(), r1.max()) >= 2.0**61 or extent >= 2.0**62:
            raise ConfigError("coordinate range too large for the crossing grid")

    # Each registered segment covers one strip of rows per grid column: its
    # bounding-box rows, or, for a sloped wide segment, the rows it spans
    # inside the column with one row of padding against rounding in ya/yb.
    cx0 = fx0[reg].astype(np.int64)
    ncol = fx1[reg].astype(np.int64) - cx0 + 1
    owner = np.repeat(reg, ncol)
    col = concat_ranges(cx0, ncol)
    row_lo = fy0[owner].astype(np.int64)
    row_hi = fy1[owner].astype(np.int64)
    walk = wide[owner] & (ax[owner] != bx[owner])
    e, c = owner[walk], col[walk]
    slope = (by[e] - ay[e]) / (bx[e] - ax[e])
    ya = ay[e] + slope * (np.maximum(ax[e], c * h) - ax[e])
    yb = ay[e] + slope * (np.minimum(bx[e], (c + 1) * h) - ax[e])
    row_lo[walk] = np.floor(np.minimum(ya, yb) / h).astype(np.int64) - 1
    row_hi[walk] = np.floor(np.maximum(ya, yb) / h).astype(np.int64) + 1

    nrow = row_hi - row_lo + 1
    base, top = (row_lo.min(), row_hi.max()) if len(reg) else (0, 0)
    cell = np.repeat(col * (top - base + 1), nrow)
    cell += concat_ranges(row_lo - base, nrow)
    keys = _same_cell_keys(cell, np.repeat(owner, nrow), m)
    for i in np.flatnonzero(long):
        hit = (ax <= bx[i]) & (bx >= ax[i]) & (ymin <= ymax[i]) & (ymax >= ymin[i])
        hit[i] = False
        j = np.flatnonzero(hit)
        keys.append(np.minimum(j, i) * np.int64(m) + np.maximum(j, i))
    if len(keys) > 1:
        keys = [sorted_unique(np.concatenate(keys))]
    return np.divmod(keys[0], m)


def _same_cell_keys(cell, owner, m):
    """Keys a * m + b (a < b) of the owner pairs registered in a common cell,
    as a list of sorted distinct blocks (a pair may recur across blocks)."""
    order = np.argsort(cell)
    cell, owner = cell[order], owner[order]
    first = np.ones(len(cell), dtype=bool)
    np.not_equal(cell[1:], cell[:-1], out=first[1:])
    run_stop = np.append(np.flatnonzero(first)[1:], len(cell))
    pos = np.arange(len(cell))
    # Each registration pairs with every later one in its cell.
    later = run_stop[np.cumsum(first) - 1] - pos - 1
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


def find_crossings(g: GeometricGraph) -> list[CrossingRecord]:
    """All pairwise segment contacts, canonically ordered with e1 < e2.

    Proper crossings are pairs whose open segments intersect at a single
    interior point; pairs sharing a graph vertex are never proper and are
    reported only when they overlap collinearly (a data error).
    """
    if g.m < 2:
        return []
    a, b = _cell_candidates(g)
    x1, y1, x2, y2 = g.segment_arrays()
    xlo, xhi = np.minimum(x1, x2), np.maximum(x1, x2)
    ylo, yhi = np.minimum(y1, y2), np.maximum(y1, y2)
    overlap = (
        (xhi[a] >= xlo[b]) & (xhi[b] >= xlo[a]) & (yhi[a] >= ylo[b]) & (yhi[b] >= ylo[a])
    )
    a, b = a[overlap], b[overlap]
    ax, ay, bx, by = x1[a], y1[a], x2[a], y2[a]
    cx, cy, dx, dy = x1[b], y1[b], x2[b], y2[b]

    def cross_terms(px, py, qx, qy, rx, ry):
        t1 = (qx - px) * (ry - py)
        t2 = (qy - py) * (rx - px)
        return t1 - t2, _EPS * (np.abs(t1) + np.abs(t2))

    d1, b1 = cross_terms(ax, ay, bx, by, cx, cy)
    d2, b2 = cross_terms(ax, ay, bx, by, dx, dy)
    d3, b3 = cross_terms(cx, cy, dx, dy, ax, ay)
    d4, b4 = cross_terms(cx, cy, dx, dy, bx, by)

    sure1 = np.abs(d1) > b1
    sure2 = np.abs(d2) > b2
    sure3 = np.abs(d3) > b3
    sure4 = np.abs(d4) > b4

    opposite_ab = sure1 & sure2 & (np.sign(d1) != np.sign(d2))
    opposite_cd = sure3 & sure4 & (np.sign(d3) != np.sign(d4))
    same_ab = sure1 & sure2 & (np.sign(d1) == np.sign(d2))
    same_cd = sure3 & sure4 & (np.sign(d3) == np.sign(d4))

    proper_fast = opposite_ab & opposite_cd
    separated = same_ab | same_cd
    ambiguous = ~(proper_fast | separated)

    shared = (
        (g.edge_u[a] == g.edge_u[b])
        | (g.edge_u[a] == g.edge_v[b])
        | (g.edge_v[a] == g.edge_u[b])
        | (g.edge_v[a] == g.edge_v[b])
    )
    # A shared graph vertex rules out a proper crossing; only collinear
    # overlap is still possible there.  Filter those cheaply: all four
    # orientations must be (possibly) zero and the 1-D projections must
    # overlap in more than a point, otherwise the pair is a plain junction.
    proper_fast &= ~shared
    maybe_zero = ~(sure1 | sure2 | sure3 | sure4)
    use_x = np.abs(bx - ax) >= np.abs(by - ay)
    p_lo = np.where(use_x, np.minimum(ax, bx), np.minimum(ay, by))
    p_hi = np.where(use_x, np.maximum(ax, bx), np.maximum(ay, by))
    q_lo = np.where(use_x, np.minimum(cx, dx), np.minimum(cy, dy))
    q_hi = np.where(use_x, np.maximum(cx, dx), np.maximum(cy, dy))
    positive_overlap = np.minimum(p_hi, q_hi) > np.maximum(p_lo, q_lo)
    shared_suspect = shared & maybe_zero & positive_overlap
    ambiguous = (ambiguous & ~shared) | shared_suspect

    idx = np.flatnonzero(proper_fast)
    rx = bx[idx] - ax[idx]
    ry = by[idx] - ay[idx]
    sx = dx[idx] - cx[idx]
    sy = dy[idx] - cy[idx]
    denom = rx * sy - ry * sx
    t = ((cx[idx] - ax[idx]) * sy - (cy[idx] - ay[idx]) * sx) / denom
    kinds = [PROPER] * len(idx)
    points = list(zip((ax[idx] + t * rx).tolist(), (ay[idx] + t * ry).tolist()))

    kept = []
    for row in np.flatnonzero(ambiguous).tolist():
        kind, point = geometry.segment_contact(
            float(ax[row]), float(ay[row]), float(bx[row]), float(by[row]),
            float(cx[row]), float(cy[row]), float(dx[row]), float(dy[row]),
        )
        if kind is None:
            continue
        if shared[row] and kind != COLLINEAR_OVERLAP:
            continue  # planned junction, not a crossing
        kept.append(row)
        kinds.append(kind)
        points.append(point)

    # Rows are in (e1, e2) order already; merge the two sources back into it.
    rows = np.concatenate([idx, np.array(kept, dtype=np.int64)])
    order = np.argsort(rows, kind="stable")
    e1, e2 = a[rows[order]], b[rows[order]]
    lv1, lv2 = g.edge_level[e1], g.edge_level[e2]
    return [
        CrossingRecord(i, j, points[k], (lo, hi), kinds[k])
        for k, i, j, lo, hi in zip(
            order.tolist(), e1.tolist(), e2.tolist(),
            np.minimum(lv1, lv2).tolist(), np.maximum(lv1, lv2).tolist(),
        )
    ]


@dataclass(frozen=True)
class PlanarizedGraph:
    """Input graph with every proper crossing promoted to a degree-4 vertex."""

    graph: GeometricGraph
    base: GeometricGraph
    crossing_vertices: tuple
    split_edges: dict


def planarize(g: GeometricGraph, records, verify: bool = True) -> PlanarizedGraph:
    """Split edges at their proper crossing points.

    Crossing vertices get fresh ids n, n+1, ... in record order; each split
    edge becomes a chain of collinear sub-edges whose weights divide the
    original weight proportionally to arc length.  Collinear overlaps are
    unsupported degeneracies.
    """
    for r in records:
        if r.kind == COLLINEAR_OVERLAP:
            raise DegeneracyError(
                f"collinear overlapping edges ({r.e1}, {r.e2}) cannot be planarized"
            )
    proper = sorted(proper_only(records), key=lambda r: (r.e1, r.e2))

    n, m = g.n, g.m
    pts = np.array([r.point for r in proper], dtype=np.float64).reshape(-1, 2)
    # One cut per (crossing, edge), crossing-major: e1's cut, then e2's.
    edge = np.array([(r.e1, r.e2) for r in proper], dtype=np.int64).ravel()
    vid = np.repeat(np.arange(n, n + len(proper)), 2)
    u, v = g.xy[g.edge_u[edge]], g.xy[g.edge_v[edge]]
    # Squares go through libm pow (float_power), as ``x ** 2`` on a numpy
    # scalar does; x * x rounds differently for some x, which would move t
    # and the sub-edge weights by an ulp.
    ln2 = np.float_power(v - u, 2).sum(axis=1)
    t = ((np.repeat(pts, 2, axis=0) - u) * (v - u)).sum(axis=1) / ln2
    bad = np.flatnonzero(~((t > 0.0) & (t < 1.0)))
    if len(bad):
        r = proper[bad[0] // 2]
        raise DegeneracyError(
            f"crossing ({r.e1}, {r.e2}) lies numerically on an endpoint"
        )

    # Cuts along each edge by (t, crossing id); equal t is a concurrency.
    order = np.lexsort((vid, t, edge))
    edge, t, vid = edge[order], t[order], vid[order]
    tied = np.flatnonzero((edge[1:] == edge[:-1]) & (t[1:] == t[:-1]))
    if len(tied):
        raise DegeneracyError(f"concurrent crossings on edge {int(edge[tied[0]])}")

    # Edge e becomes sub-edges first[e] .. first[e] + cuts[e]; its k-th cut
    # ends sub-edge first[e] + k and starts the next one.
    cuts = np.bincount(edge, minlength=m)
    first = np.cumsum(cuts + 1) - (cuts + 1)
    owner = np.repeat(np.arange(m), cuts + 1)
    end = first[edge] + np.arange(len(edge)) - (np.cumsum(cuts) - cuts)[edge]
    eu, ev = np.empty(len(owner), dtype=np.int64), np.empty(len(owner), dtype=np.int64)
    t0, t1 = np.empty(len(owner)), np.empty(len(owner))
    eu[first], t0[first] = g.edge_u, 0.0
    ev[first + cuts], t1[first + cuts] = g.edge_v, 1.0
    ev[end], t1[end] = vid, t
    eu[end + 1], t0[end + 1] = vid, t
    split_edges = {
        e: tuple(range(s, s + k + 1))
        for e, (s, k) in enumerate(zip(first.tolist(), cuts.tolist()))
    }
    crossing_vertices = tuple(
        (n + i, r.point, r.e1, r.e2) for i, r in enumerate(proper)
    )

    graph = GeometricGraph(
        np.concatenate([g.xy, pts]), eu, ev,
        g.edge_weight[owner] * (t1 - t0), g.edge_level[owner],
        meta={"planarized_from": g.meta.get("source", "graph")},
    )
    out = PlanarizedGraph(graph, g, crossing_vertices, split_edges)
    if verify:
        leftover = proper_only(find_crossings(graph))
        if leftover:
            raise InvariantViolation(
                f"planarization left {len(leftover)} proper crossings"
            )
    return out
