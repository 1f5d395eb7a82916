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
crossings, endpoint touches, and collinear overlaps (never planarized),
and the graph keeps it, with the grid.  ``planarize`` splits edges at
proper crossings and checks only the sub-edge pairs that the rounding of
crossing vertices can bring into contact.

Memory: every candidate expansion (pairs sharing a cell, the classification
of candidates, the rounding check's site and vertex lookups) runs
``_arrays._PAIR_BLOCK`` items at a time in candidate order, so the joins
hold O(m + distinct candidate keys + block) at once, not one temporary per
candidate for all of them.  The rounding check's rows of the sites that
pair their pieces are taken a run of whole sites at a time: at most a
block plus the rows of one site.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _arrays, geometry
from ._arrays import concat_ranges, index_of, range_blocks, sorted_unique
from .errors import ConfigError, DegeneracyError, InvariantViolation, ValidationError
from .geometry import COLLINEAR_OVERLAP, ENDPOINT_TOUCH, PROPER
from .graphs import GeometricGraph

_U = 2.0**-53  # unit roundoff of float64


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
    x1, y1, x2, y2 = segments = g.segment_arrays()
    *_, cell, owner, long = _grid(g, segments)
    keys = _same_cell_keys(cell, owner, m)
    (xlo, xhi), (ylo, yhi) = np.sort([x1, x2], axis=0), np.sort([y1, y2], axis=0)
    for i in long:
        hit = (xlo <= xhi[i]) & (xhi >= xlo[i]) & (ylo <= yhi[i]) & (yhi >= ylo[i])
        hit[i] = False
        j = np.flatnonzero(hit)
        keys.append(np.minimum(j, i) * np.int64(m) + np.maximum(j, i))
    if len(keys) > 1:
        # One step at a time, so that each frees its input before the next.
        keys = np.concatenate(keys)
        keys = [sorted_unique(keys)]
    return np.divmod(keys[0], m)


def _grid(g: GeometricGraph, segments=None):
    """``_segment_grid`` of the edges of ``g``, kept on ``g``, read-only;
    ``segments`` is ``g.segment_arrays()`` if the caller has it."""
    if g._grid is None:
        grid = _segment_grid(*(segments or g.segment_arrays()))
        for a in grid[3:]:
            a.setflags(write=False)
        g._grid = grid
    return g._grid


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
    ``cell``, as a list of sorted distinct blocks (a pair may recur across
    them), at least one."""
    first = np.flatnonzero(np.diff(cell, prepend=cell[:1] - 1))
    count = np.diff(first, append=len(cell))
    pos = np.arange(len(cell))
    # Each registration pairs with every later one in its cell.
    later = np.repeat(first + count, count) - pos - 1
    # Expanded a block at a time and deduplicated per block, so the copies of
    # a pair that shares several cells never all exist at once.
    blocks = []
    for i, j in range_blocks(pos + 1, later):
        a, b = owner[i], owner[j]
        keys = np.minimum(a, b)
        keys *= m
        keys += np.maximum(a, b, out=a)
        blocks.append(sorted_unique(keys))
    return blocks


def find_crossings(g: GeometricGraph) -> CrossingTable:
    """All pairwise segment contacts, canonically ordered by (e1, e2), e1 < e2.

    Proper crossings are pairs whose open segments intersect at a single
    interior point; pairs sharing a graph vertex are never proper and are
    reported only when they overlap collinearly (a data error).  The table
    is kept on ``g``, its columns read-only, so later calls (and
    ``planarize``) reuse it.
    """
    if g._crossings is None:
        e1, e2, kind, x, y = _contacts(g, *_cell_candidates(g))
        lv1, lv2 = g.edge_level[e1], g.edge_level[e2]
        table = CrossingTable(e1, e2, x, y, np.minimum(lv1, lv2), np.maximum(lv1, lv2), kind)
        for column in vars(table).values():
            column.setflags(write=False)
        g._crossings = table
    return CrossingTable(*vars(g._crossings).values())


def _contacts(g: GeometricGraph, a, b, junctions: bool = True):
    """Classify the candidate pairs (a[i], b[i]); return the (e1, e2, kind
    code, x, y) arrays of those in contact, in candidate order.

    Pairs sharing a graph vertex are never proper; they are kept only when
    they overlap collinearly, and with junctions=False they are dropped
    before the orientation tests.  A pair sharing vertex w, with free ends
    p and q, lies on one line only if orient(w, p, q) = 0: a sign the float
    filter is sure of rules the overlap out, and only the pairs it leaves
    undecided go to the exact test.  Candidates are classified
    ``_PAIR_BLOCK`` at a time.
    """
    segments = g.segment_arrays()
    x1, y1, x2, y2 = segments
    box = np.minimum(x1, x2), np.maximum(x1, x2), np.minimum(y1, y2), np.maximum(y1, y2)
    block = _arrays._PAIR_BLOCK
    # Slices, not ``range_blocks``: views need no index arrays.  No candidate
    # still makes one (empty) block, which gives the dtypes.
    found = [_contact_block(g, segments, box, a[i : i + block], b[i : i + block], junctions)
             for i in range(0, max(len(a), 1), block)]
    return tuple(np.concatenate(column) for column in zip(*found))


def _contact_block(g: GeometricGraph, segments, box, a, b, junctions):
    """``_contacts`` on one block of candidates, given the segment and box columns."""
    x1, y1, x2, y2 = segments
    xlo, xhi, ylo, yhi = box
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
    kind = np.full(len(a), -1, dtype=np.int8)
    x, y = np.empty(len(a)), np.empty(len(a))
    ambiguous = np.empty(len(a), dtype=bool)

    free = np.flatnonzero(~shared)
    fa, fb = a[free], b[free]
    coords = ax, ay, bx, by, cx, cy, dx, dy = x1[fa], y1[fa], x2[fa], y2[fa], x1[fb], y1[fb], x2[fb], y2[fb]
    orient = geometry.orient_filtered
    o1, o2 = orient(ax, ay, bx, by, cx, cy), orient(ax, ay, bx, by, dx, dy)
    o3, o4 = orient(cx, cy, dx, dy, ax, ay), orient(cx, cy, dx, dy, bx, by)
    ab, cd = o1 * o2, o3 * o4
    opposite = (ab < 0) & (cd < 0)
    ambiguous[free] = ~(opposite | (ab > 0) | (cd > 0))
    proper = free[opposite]
    kind[proper] = KINDS.index(PROPER)
    x[proper], y[proper] = geometry.intersection_point(*(c[opposite] for c in coords))

    joint = np.flatnonzero(shared)
    ua, va, ub, vb = u[a[joint]], v[a[joint]], u[b[joint]], v[b[joint]]
    w = np.where((ua == ub) | (ua == vb), ua, va)
    p, q = g.xy[ua + va - w], g.xy[ub + vb - w]
    ambiguous[joint] = orient(g.xy[w, 0], g.xy[w, 1], p[:, 0], p[:, 1], q[:, 0], q[:, 1]) == 0

    # The exact test decides what the filters cannot.
    for row in np.flatnonzero(ambiguous).tolist():
        e, f = a[row], b[row]
        found, point = geometry.segment_contact(*(float(c[k]) for k in (e, f) for c in segments))
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
    length.  Collinear overlaps are unsupported degeneracies.  Rows naming
    edges outside 0 <= e1 < e2 < m, and proper rows other than the graph's
    own crossings (edges, x and y as ``find_crossings(g)`` gives them), raise
    ValidationError.  An exact crossing search on the result must find no
    proper crossing; a leftover one raises ``_leftover_error``'s error.

    The check reads the exact contacts of ``g`` (kept by ``find_crossings``)
    and classifies only the sub-edge pairs that rounding can bring into
    contact.  A crossing vertex p rounds the exact point X, and its reach
    bounds |p - X| (``_reach``); the reach r_e of an edge is the largest of
    its cuts' (0 for a whole edge), so every piece of e lies within r_e of e.

    Why no proper crossing escapes: move every crossing vertex from X to p
    along a straight line.  At the start the pieces of one chain lie on one
    line, and pieces of two chains cross properly only at an exact proper
    crossing of their edges, a row's vertex or one the table lacks; rule
    (a) pairs the pieces through it.  A pair of pieces, of edges e and f,
    that crosses properly at the end but not at the start has a last time
    at which it does not, and then an endpoint P of one lies on the other
    (closed segments meeting otherwise cross properly).  P is an input
    vertex, or within its cut's reach of its exact point on e, and the
    other piece is within r_f of f, so the exact point of P lies within
    d = r_e + r_f of f, and the pieces' meeting point near it.  Then:

    - e = f: the other piece has a cut or chain end within d of P, and the
      windows of (a) around P's row, or of (b) around a chain end, hold it.
    - e and f meet at a point Y, at an angle of sine s: the points of e
      within d of f lie within d / s of Y, and so do those of f near them.
      (a) pairs the pieces of e and f within that of a row's point (proper
      crossing, endpoint touch or overlap, where s = 0).  (b) pairs those
      of all edges at a shared vertex, where s is 1 past a right angle.
    - e and f are disjoint: they are closest at an endpoint w of one, so w
      lies within d of the other, and along each the points within d of
      the other lie within 2 d / s of w or of its projection: (c).

    ``_rounding_pairs`` builds (a)-(c) with these radii doubled, plus the
    float error of the cut and projection parameters.
    """
    graph, proper, rows, ends, off, t0, t1 = _cut(g, _table(crossings))
    a, b = _rounding_pairs(g, graph, rows, ends, off, t0, t1)
    a, b, kind, _, _ = _contacts(graph, a, b, junctions=False)
    left = kind == KINDS.index(PROPER)
    if left.any():
        owner = np.repeat(np.arange(g.m), np.diff(off))
        raise _leftover_error(g, owner[a[left]], owner[b[left]])
    return PlanarizedGraph(graph, g, proper, off)


def _cut(g: GeometricGraph, table: CrossingTable):
    """Check ``table`` and split the edges of ``g`` at its proper rows.

    Returns (graph, proper, rows, ends, off, t0, t1): the split graph, the
    proper rows, their rows in ``find_crossings(g)``, per proper row the
    sub-edges of e1 and of e2 that end at its vertex, the chain offsets,
    and each sub-edge's start and end parameter along its base edge.
    """
    n, m = g.n, g.m
    bad = np.flatnonzero(~((0 <= table.e1) & (table.e1 < table.e2) & (table.e2 < m)))
    if len(bad):
        i = bad[0]
        raise ValidationError(f"crossing row names edges ({table.e1[i]}, {table.e2[i]}), not 0 <= e1 < e2 < {m}")
    overlaps = np.flatnonzero(table.kind == KINDS.index(COLLINEAR_OVERLAP))
    if len(overlaps):
        i = overlaps[0]
        raise DegeneracyError(
            f"collinear overlapping edges ({table.e1[i]}, {table.e2[i]}) cannot be planarized"
        )
    proper = proper_only(table)

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
    end = edge + np.arange(len(edge))
    tied = np.flatnonzero((edge[1:] == edge[:-1]) & (t[1:] == t[:-1]))
    if len(tied):
        raise DegeneracyError(f"concurrent crossings on edge {int(edge[tied[0]])}")

    # The proper rows must be the graph's own crossings, bit for bit.
    exact = find_crossings(g)
    rows, found = index_of(exact.e1 * m + exact.e2, proper.e1 * m + proper.e2)
    at = rows[found]
    found[found] = (exact.kind[at] == KINDS.index(PROPER)) & (exact.x[at] == proper.x[found]) & (exact.y[at] == proper.y[found])
    if not found.all():
        i = np.flatnonzero(~found)[0]
        raise ValidationError(
            f"crossing row ({proper.e1[i]}, {proper.e2[i]}) at ({proper.x[i]}, {proper.y[i]}) "
            "is not a proper crossing of the graph"
        )

    # Edge e becomes sub-edges off[e] .. off[e + 1] - 1; the j-th cut in
    # this order ends sub-edge edge[j] + j and starts the next one.
    off = np.arange(m + 1) + np.searchsorted(edge, np.arange(m + 1))
    owner = np.repeat(np.arange(m), np.diff(off))
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
    ends = np.empty_like(end)
    ends[order] = end
    return graph, proper, rows, ends.reshape(-1, 2), off, t0, t1


def _reach(g: GeometricGraph, e1, e2, x, y):
    """Per row, an upper bound on |p - X|: p = (x, y) is the crossing point
    of edges e1 and e2 as ``geometry.intersection_point`` rounds it, X the
    exact one.

    That formula's forward error, with u = 2^-53: the numerator and the
    denominator of t err by at most 8u times the sum of their products'
    magnitudes, so t, exactly in (0, 1), errs by at most their sum over
    |denominator| plus 2u, and x = ax + t rx by that times |rx| plus
    4u |rx| + 2u |x|; y likewise.  The reach is twice the sum over both
    axes.  It grows like 1 / sin(angle) as the edges turn parallel; where
    it overflows it is inf, which makes every check near it conservative.
    """
    x1, y1, x2, y2 = g.segment_arrays()
    ax, ay, bx, by, cx, cy, dx, dy = x1[e1], y1[e1], x2[e1], y2[e1], x1[e2], y1[e2], x2[e2], y2[e2]
    with np.errstate(over="ignore", invalid="ignore"):
        rx, ry, sx, sy, qx, qy = bx - ax, by - ay, dx - cx, dy - cy, cx - ax, cy - ay
        products = np.abs(rx * sy) + np.abs(ry * sx) + np.abs(qx * sy) + np.abs(qy * sx)
        dt = 8 * _U * products / np.abs(rx * sy - ry * sx) + 2 * _U
        reach = 2 * ((dt + 4 * _U) * (np.abs(rx) + np.abs(ry)) + 2 * _U * (np.abs(x) + np.abs(y)))
    return np.where(np.isfinite(reach), reach, np.inf)


def _rounding_pairs(g: GeometricGraph, graph: GeometricGraph, rows, ends, off, t0, t1):
    """Sub-edge pairs (a, b) of ``graph``, a < b, sorted and distinct, that
    hold every proper crossing between its sub-edges (see ``planarize``);
    ``rows``, ``ends``, ``off``, ``t0`` and ``t1`` are as ``_cut`` gives them.

    Each rule names sites: a point and, on some chains, a parameter window
    around its projection.  A site meets the pieces of those chains whose
    parameter ranges meet their windows, and one that meets a piece not
    ending at its point pairs all the pieces it meets.  Radii are lengths
    along the base edges, doubled for the float evaluation, and windows
    add the parameter error of the cuts and of the projection.
    """
    n, m = g.n, g.m
    exact = find_crossings(g)
    proper = exact.kind == KINDS.index(PROPER)
    if not proper.any():
        # Nothing moved, and no base edges cross properly.
        return np.empty((2, 0), dtype=np.int64)
    reach = np.zeros(len(exact))
    reach[proper] = _reach(g, exact.e1[proper], exact.e2[proper], exact.x[proper], exact.y[proper])
    rho = np.zeros(m)  # per base edge, the largest reach of its cuts
    np.maximum.at(rho, exact.e1[rows], reach[rows])
    np.maximum.at(rho, exact.e2[rows], reach[rows])
    rho_w = np.zeros(n)  # per vertex, the largest rho of its edges
    np.maximum.at(rho_w, g.edge_u, rho)
    np.maximum.at(rho_w, g.edge_v, rho)
    x1, y1, x2, y2 = g.segment_arrays()
    dx, dy = x2 - x1, y2 - y1
    length = np.hypot(dx, dy)
    sites = []  # (site, chain, x, y, radius) arrays, one row per window

    # (a) Every contact (e, f) of g, at its table point: e and f come within
    # rho_e + rho_f of each other only within (rho_e + rho_f) / sin of it.
    e, f = exact.e1, exact.e2
    rho_ef = rho[e] + rho[f]
    with np.errstate(divide="ignore", invalid="ignore"):
        r = rho_ef / np.maximum(_sine(dx[e], dy[e], dx[f], dy[f], length[e], length[f]), 0.0)
    r = np.where(rho_ef > 0, r, 0.0) + 2 * rho_ef + reach
    # Two whole edges are as the table has them.  A crossing vertex whose
    # windows stay within the pieces on either side of it meets only pieces
    # that end at it.
    chain = np.column_stack([e[rows], f[rows]])
    half = 2 * (r[rows, None] + 2 * rho[chain]) / length[chain] + 128 * _U
    gap = np.minimum(t1[ends] - t0[ends], t1[ends + 1] - t0[ends + 1])
    site = (rho_ef > 0) | proper
    site[rows[(2 * half < gap).all(axis=1)]] = False
    site = np.flatnonzero(site)
    for c in (e, f):
        sites.append((site, c[site], exact.x[site], exact.y[site], r[site]))

    # (b) Every chain end w: there chains e and f come within rho_e + rho_f
    # only within (rho_e + rho_f) / sin of w, where sin is 1 past a right
    # angle.
    vertex, chain, r = _end_sites(g, rho, rho_w, dx, dy, length, off, t0, t1)
    sites.append((len(exact) + vertex, chain, g.xy[vertex, 0], g.xy[vertex, 1], r))

    # (c) Every input vertex w within rho_w + rho_f of an edge f it is not
    # an endpoint of, with each edge e at w: along e, the points within
    # that distance of f lie within 2 (rho_w + rho_f) / sin of w.
    # Only pairs with rho_w + rho_f > 0 need a site.
    w, f = _near_grid(g, rho, rho_w)
    w, f = np.divmod(sorted_unique(w * np.int64(m) + f), m)
    if len(w):
        indptr, _, eidx, _ = g.adjacency()
        count = indptr[w + 1] - indptr[w]
        w, f, e = np.repeat(w, count), np.repeat(f, count), eidx[concat_ranges(indptr[w], count)]
        rho_ef = rho_w[w] + rho[f]
        with np.errstate(divide="ignore", invalid="ignore"):
            r = 2 * rho_ef / np.maximum(_sine(dx[e], dy[e], dx[f], dy[f], length[e], length[f]), 0.0) + 2 * rho_ef
        site = len(exact) + n + np.arange(len(w))
        for c in (e, f):
            sites.append((site, c, g.xy[w, 0], g.xy[w, 1], r))

    site, chain, sx, sy, r = (np.concatenate(c) for c in zip(*sites))
    qx, qy = sx - x1[chain], sy - y1[chain]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        para = (qx * dx[chain] + qy * dy[chain]) / (np.float_power(dx[chain], 2) + np.float_power(dy[chain], 2))
        half = 2 * (r + 2 * rho[chain]) / length[chain] + 64 * _U * (np.hypot(qx, qy) / length[chain] + 1)
        lo = np.clip(np.nan_to_num(para - half, nan=0.0), 0.0, 1.0)
        hi = np.clip(np.nan_to_num(para + half, nan=1.0), 0.0, 1.0)
    # Pieces whose range meets [lo, hi]: keys chain + t round monotonely, so
    # the search on them can only widen the range, and no wider than the chain.
    owner = np.repeat(np.arange(m, dtype=np.float64), np.diff(off))
    start = np.maximum(np.searchsorted(owner + t1, chain + lo), off[chain])
    count = np.minimum(np.searchsorted(owner + t0, chain + hi, "right"), off[chain + 1]) - start
    active = np.zeros(site.max(initial=0) + 1, dtype=bool)
    for k, piece in range_blocks(start, count):
        at_point = [(graph.xy[v, 0] == sx[k]) & (graph.xy[v, 1] == sy[k]) for v in (graph.edge_u[piece], graph.edge_v[piece])]
        active[site[k[~(at_point[0] | at_point[1])]]] = True
    # The pieces each active site meets, grouped by site in window order,
    # paired a run of whole sites at a time (no pair spans two sites): a run
    # starts at each site whose first row opens a new block of rows, so it
    # holds at most a block plus one site's rows.
    keep = np.flatnonzero(active[site])
    keep = keep[np.argsort(site[keep], kind="stable")]
    head = np.flatnonzero(np.diff(site[keep], prepend=-1))
    row = (np.cumsum(count[keep]) - count[keep])[head] // _arrays._PAIR_BLOCK
    run = head[np.diff(row, prepend=-1) > 0][1:].tolist()
    keys = []
    for i, j in zip([0, *run], [*run, len(keep)]):
        k = keep[i:j]
        keys += _same_cell_keys(np.repeat(site[k], count[k]), concat_ranges(start[k], count[k]), graph.m)
    return np.divmod(sorted_unique(np.concatenate(keys)), graph.m)


def _sine(ax, ay, bx, by, la, lb):
    """A lower bound on |sin| of the angle between the directions (ax, ay)
    and (bx, by) of lengths la and lb."""
    return np.abs(ax * by - ay * bx) / (la * lb) - 8 * _U


def _end_sites(g: GeometricGraph, rho, rho_w, dx, dy, length, off, t0, t1):
    """(vertex, chain, radius): rule (b)'s windows (see ``_rounding_pairs``).
    The chain next to e in angle at w bounds the sine.  A vertex where no
    window passes its end piece meets only pieces ending there: skipped."""
    n, m = g.n, g.m
    vertex = np.concatenate([g.edge_u, g.edge_v])
    chain = np.concatenate([np.arange(m), np.arange(m)])
    # At a vertex whose chains are all whole, each meets only itself.
    moved = np.flatnonzero(rho_w[vertex] > 0)
    vertex, chain = vertex[moved], chain[moved]
    sign = np.where(moved < m, 1.0, -1.0)
    ax, ay = sign * dx[chain], sign * dy[chain]
    # Sorted by vertex, then by angle in steps of 2^-bits: a neighbour in this
    # order is at most two steps further in angle than the nearest chain.
    bits = 59 - int(n).bit_length()
    order = np.argsort((vertex << (bits + 3)) + np.floor((np.arctan2(ay, ax) + 4.0) * 2.0**bits).astype(np.int64))
    vertex, chain, ax, ay = vertex[order], chain[order], ax[order], ay[order]
    k = np.arange(len(vertex))
    first = np.searchsorted(vertex, vertex)
    last = np.searchsorted(vertex, vertex, "right") - 1
    sin = np.ones(len(vertex))
    with np.errstate(divide="ignore", invalid="ignore"):
        for other in (np.where(k == first, last, k - 1), np.where(k == last, first, k + 1)):
            acute = (ax * ax[other] + ay * ay[other] > 0) & (other != k)
            sin = np.where(acute, np.minimum(sin, _sine(ax, ay, ax[other], ay[other], length[chain], length[chain[other]])), sin)
        sin -= 2.0 ** (1 - bits)
        r = 2 * rho_w[vertex] / np.maximum(sin, 0.0) + 4 * rho_w[vertex]
        gap = np.where(g.edge_u[chain] == vertex, t1[off[chain]], 1.0 - t0[off[chain + 1] - 1])
        reaches = ~(2 * (r + 2 * rho[chain]) / length[chain] + 128 * _U < gap)
    site = np.zeros(n, dtype=bool)
    site[vertex[reaches]] = True
    keep = site[vertex]
    return vertex[keep], chain[keep], r[keep]


def _near_grid(g: GeometricGraph, rho, rho_w):
    """(w, f): the vertices w within rho_w[w] + rho[f] > 0 of an edge f that
    they are not an endpoint of, from the grid of the edges (``_grid``).
    Vertices and edges of reach above h / 16 meet every edge or vertex; the
    rest look up at most 2 x 2 cells.  Candidates are tested a block at a time."""
    h, base, nrow, cell, owner, long = _grid(g)
    x1, y1, x2, y2 = g.segment_arrays()
    px, py = g.xy[:, 0], g.xy[:, 1]
    heavy = rho > h / 16
    light = np.flatnonzero(rho_w <= h / 16)
    far = rho_w[light] + rho[~heavy].max(initial=0.0)
    far += 2.0**-30 * h + 8 * np.spacing(np.maximum(np.abs(px[light]), np.abs(py[light])))
    c0, c1 = np.floor((px[light] - far) / h), np.floor((px[light] + far) / h)
    r0, r1 = np.floor((py[light] - far) / h), np.floor((py[light] + far) / h)
    point, key = [], []
    for dc, dr in ((0, 0), (0, 1), (1, 0), (1, 1)):
        col, row = c0 + dc, r0 + dr
        ok = (col <= c1) & (row <= r1) & (row >= base) & (row < base + nrow)
        point.append(light[ok])
        key.append(col[ok].astype(np.int64) * nrow + row[ok].astype(np.int64) - base)
    point, key = np.concatenate(point), np.concatenate(key)
    lo, hi = np.searchsorted(cell, key), np.searchsorted(cell, key, "right")
    lone = np.flatnonzero(rho_w > h / 16)
    wide = np.union1d(long, np.flatnonzero(heavy))

    xlo, xhi, ylo, yhi = np.minimum(x1, x2), np.maximum(x1, x2), np.minimum(y1, y2), np.maximum(y1, y2)

    def near(w, f):
        dist = rho_w[w] + rho[f]
        keep = (dist > 0) & (g.edge_u[f] != w) & (g.edge_v[f] != w)
        w, f, dist = w[keep], f[keep], dist[keep]
        qx, qy = px[w], py[w]
        # A box test first: w within dist of f's bounding box, up to rounding.
        pad = 2 * dist + 8 * np.spacing(np.maximum(np.abs(qx), np.abs(qy)))
        keep = (xlo[f] - pad <= qx) & (qx <= xhi[f] + pad) & (ylo[f] - pad <= qy) & (qy <= yhi[f] + pad)
        w, f, dist, qx, qy = w[keep], f[keep], dist[keep], qx[keep], qy[keep]
        dx, dy = x2[f] - x1[f], y2[f] - y1[f]
        qx, qy = qx - x1[f], qy - y1[f]
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            length = np.hypot(dx, dy)
            cross = np.abs(dx * qy - dy * qx)
            para = (qx * dx + qy * dy) / (length * length)
            half = 2 * dist / length + 16 * _U * (np.hypot(qx, qy) / length + 1)
            close = ~((cross > 2 * dist * length + 16 * _U * (np.abs(dx * qy) + np.abs(dy * qx))) | (para < -half) | (para > 1 + half))
        return w[close], f[close]

    found = [near(point[r], owner[k]) for r, k in range_blocks(lo, hi - lo)]
    found += [near(lone[r], k) for r, k in range_blocks(np.zeros_like(lone), np.full(len(lone), g.m))]
    found += [near(k, wide[r]) for r, k in range_blocks(np.zeros_like(wide), np.full(len(wide), g.n))]
    return tuple(np.concatenate(c) for c in zip(*found))


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
