"""Circle arrangements over disk systems.

Both builders derive one vertex table from the system: the intersection
points of every recorded pair of positive-radius disks, in pair order, from
one ``geometry.circle_pair_points`` call, then a sentinel vertex for every
circle without points, so the cell complex stays well formed
(V - E + F = 1 + C).  ``build_naive`` numbers the vertices in table order;
``build_inductive`` numbers them in the order the inductive construction
splices them in: circles in increasing (radius, id) order, each through the
components of its smaller intersecting neighbors, taken in radial order.
Each circle's ring is its vertices sorted by angle about its center.

Zero-radius disks are points, not curves, and stay out of arrangements.
Faces are the orbits of the rotation system on half-edges, which the
table's ``side`` column and the circles' containment fix without angles.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ._arrays import components, index_of, sorted_unique
from .augment import ClusteringReport, clustering_check
from .disks import DiskSystem, covering_counts
from .errors import DegeneracyError, InvariantViolation
from .geometry import circle_pair_points


@dataclass(frozen=True)
class ArrangementVertex:
    point: tuple[float, float]
    circles: tuple[int, int]  # (i, j) with i < j, or (i, -1) for a sentinel
    tangent: bool = False


@dataclass(frozen=True, eq=False)
class VertexTable:
    """One row per arrangement vertex: its point (x, y), its circles (i, j),
    j = -1 for a sentinel, and its ``side``: +1 for the point of a crossing
    pair left of the line from center i to center j, -1 for the other, 0 for
    a tangent contact or a sentinel."""

    x: np.ndarray
    y: np.ndarray
    i: np.ndarray
    j: np.ndarray
    side: np.ndarray

    @property
    def tangent(self) -> np.ndarray:
        return (self.side == 0) & (self.j >= 0)


class _VertexView(Sequence):
    """``ArrangementVertex`` per table row, built on access."""

    def __init__(self, table: VertexTable):
        self._table = table

    def __len__(self):
        return len(self._table.x)

    def __getitem__(self, k):
        t = self._table
        j = int(t.j[k])
        return ArrangementVertex((float(t.x[k]), float(t.y[k])), (int(t.i[k]), j), j >= 0 and not t.side[k])


class CircleArrangement:
    """Cyclic arc structure of a set of circles.

    ``circles`` lists the circles of the arrangement; circle ``c``'s ring is
    ``ring_vertices[ring_ptr[c]:ring_ptr[c + 1]]``, its vertex ids sorted by
    angle about its center, and ``rings`` holds the same as a dict of lists
    keyed in ``circles`` order.  Every circle contributes as many arcs as it
    has vertices (one full loop for a lone sentinel).  ``vertices[v]`` reads
    row v of ``table``.
    """

    def __init__(self, centers, radii, table: VertexTable, circles, ring_ptr, ring_vertices):
        self.centers = np.asarray(centers, dtype=np.float64)
        self.radii = np.asarray(radii, dtype=np.float64)
        self.table = table
        self.vertices = _VertexView(table)
        self.circles = circles
        self.ring_ptr = ring_ptr
        self.ring_vertices = ring_vertices
        self._rings = None
        self._faces = None
        self._components = None

    @property
    def rings(self) -> dict[int, list[int]]:
        if self._rings is None:
            ids, ptr = self.ring_vertices.tolist(), self.ring_ptr.tolist()
            self._rings = {c: ids[ptr[c] : ptr[c + 1]] for c in self.circles.tolist()}
        return self._rings

    @property
    def vertex_count(self) -> int:
        """All vertices, sentinels included (the Euler V)."""
        return len(self.table.x)

    @property
    def intersection_vertex_count(self) -> int:
        return int(np.count_nonzero(self.table.j >= 0))

    @property
    def edge_count(self) -> int:
        return len(self.ring_vertices)

    @property
    def component_count(self) -> int:
        if self._components is None:
            joined = self.table.j >= 0
            label = components(len(self.radii), self.table.i[joined], self.table.j[joined])
            self._components = len(sorted_unique(label[self.circles]))
        return self._components

    def face_count(self) -> int:
        """Faces of the embedded complex: the cycles of the face permutation
        on half-edges, with the components sharing one outer face.

        Half-edges 2a and 2a + 1 run along arc a of a ring (from ring
        position a to the next), forward (counterclockwise) and back, so a
        vertex at ring position q leaves its circle by F = 2q and
        B = 2 prev(q) + 1.  ``_ROTATION`` lists the counterclockwise order
        of a vertex's half-edges (F_i, F_j, B_i, B_j) by the kind of contact:
        - at a crossing, cross(p - c_i, p - c_j) = orient(c_i, c_j, p), the
          ``side``, so F_j follows F_i on side +1 and B_j on side -1;
        - at a tangency the directions coincide in pairs, and each pair is
          ordered by signed curvature, fixed by containment and the radii;
        - a sentinel has F and B only.
        The face after h is the half-edge preceding h's twin about h's head.
        """
        if self._faces is not None:
            return self._faces
        t, ptr, ring = self.table, self.ring_ptr, self.ring_vertices
        lens = np.diff(ptr)
        circle = np.repeat(np.arange(len(lens)), lens)
        prev = np.arange(-1, len(ring) - 1)
        prev[ptr[:-1][lens > 0]] = ptr[1:][lens > 0] - 1
        # Ring position of every vertex on i and on j (a sentinel's twice).
        pos = np.empty((len(t.x), 2), dtype=np.int64)
        pos[ring, (circle != t.i[ring]).astype(np.int64)] = np.arange(len(ring))
        sentinel = t.j < 0
        pos[sentinel, 1] = pos[sentinel, 0]
        half = np.hstack([2 * pos, 2 * prev[pos] + 1])
        ci, cj = t.i, np.where(sentinel, t.i, t.j)
        ri, rj = self.radii[ci], self.radii[cj]
        d = np.hypot(*(self.centers[cj] - self.centers[ci]).T)
        kind = np.select(
            [sentinel, t.side > 0, t.side < 0, d >= np.maximum(ri, rj), ri < rj], [5, 0, 1, 2, 3], 4
        )
        around = np.take_along_axis(half, _ROTATION[kind], axis=1)
        pred = np.empty(2 * len(ring), dtype=np.int64)
        pred[around] = np.roll(around, 1, axis=1)
        nxt = pred[np.arange(len(pred)) ^ 1]
        label = components(len(nxt), np.arange(len(nxt)), nxt)
        orbits = int(np.count_nonzero(label == np.arange(len(nxt))))
        self._faces = orbits - (self.component_count - 1)
        return self._faces

    def euler_check(self) -> bool:
        v = self.vertex_count
        e = self.edge_count
        f = self.face_count()
        return v - e + f == 1 + self.component_count


# Counterclockwise order of (F_i, F_j, B_i, B_j) by kind: crossing on side +1, side -1, external
# tangency, internal tangency with r_i < r_j, with r_i > r_j, sentinel (F, B repeated).
_ROTATION = np.array([[0, 1, 2, 3], [0, 3, 2, 1], [0, 2, 1, 3], [0, 2, 3, 1], [0, 1, 3, 2], [0, 2, 0, 2]])


def _atan2(y, x) -> np.ndarray:
    """``math.atan2`` elementwise; ``np.arctan2`` rounds some angles
    differently, which would reorder rings."""
    return np.fromiter(map(math.atan2, y.tolist(), x.tolist()), np.float64, len(y))


def _intersections(system: DiskSystem):
    """(x, y, i, j, side) of the intersection vertices of every recorded
    pair of positive-radius disks, in pair order.  ``circle_pair_points``
    puts a crossing pair's left point first: side +1, then -1; a tangent
    contact has side 0."""
    i, j = system.pairs[:, 0], system.pairs[:, 1]
    live = (system.radii[i] > 0) & (system.radii[j] > 0)
    i, j = i[live], j[live]
    c, r = system.centers, system.radii
    try:
        row, x, y = circle_pair_points(c[i, 0], c[i, 1], r[i], c[j, 0], c[j, 1], r[j])
    except ValueError as exc:
        k = exc.args[1]
        raise DegeneracyError(f"duplicate circles ({i[k]}, {j[k]})") from None
    side = np.zeros(len(row), dtype=np.int8)
    paired = np.flatnonzero(row[1:] == row[:-1])
    side[paired], side[paired + 1] = 1, -1
    return x, y, i[row], j[row], side


def _angles(system, x, y, i, j):
    """Angles of each row's point about the centers of its circles: row 0
    about i, row 1 about j."""
    c = np.concatenate([i, j])
    dy, dx = np.tile(y, 2) - system.centers[c, 1], np.tile(x, 2) - system.centers[c, 0]
    return _atan2(dy, dx).reshape(2, -1)


def _arrangement(system, x, y, i, j, side, angle, circles) -> CircleArrangement:
    """The arrangement of the intersection vertices given by rows (ids in
    row order; ``angle`` holds each row's angles about i and about j) over
    ``circles``, keyed in that order.  Each circle without a vertex gets a
    sentinel, numbered after the vertices in that order."""
    count = np.bincount(np.concatenate([i, j]), minlength=len(system))
    empty = circles[count[circles] == 0]
    vid = np.concatenate([np.tile(np.arange(len(x)), 2), np.arange(len(x), len(x) + len(empty))])
    circ = np.concatenate([i, j, empty])
    ang = np.concatenate([angle.ravel(), np.zeros(len(empty))])
    order = np.lexsort((vid, ang, circ))
    vid, circ, ang = vid[order], circ[order], ang[order]
    tie = np.flatnonzero((circ[1:] == circ[:-1]) & (ang[1:] == ang[:-1]))
    if len(tie):
        raise DegeneracyError(f"concurrent intersection points on circle {circ[tie[0]]}")
    table = VertexTable(
        np.concatenate([x, system.centers[empty, 0] + system.radii[empty]]),
        np.concatenate([y, system.centers[empty, 1]]),
        np.concatenate([i, empty]),
        np.concatenate([j, np.full(len(empty), -1, dtype=np.int64)]),
        np.concatenate([side, np.zeros(len(empty), dtype=np.int8)]),
    )
    ptr = np.searchsorted(circ, np.arange(len(system) + 1))
    return CircleArrangement(system.centers, system.radii, table, circles, ptr, vid)


def build_naive(system: DiskSystem) -> CircleArrangement:
    """Reference arrangement builder: the vertices in pair order."""
    x, y, i, j, side = _intersections(system)
    angle = _angles(system, x, y, i, j)
    return _arrangement(system, x, y, i, j, side, angle, np.flatnonzero(system.radii > 0))


def build_inductive(system: DiskSystem, clustering: ClusteringReport) -> CircleArrangement:
    """Splice circles in increasing (radius, id) order.

    Each circle v gathers the components of its smaller intersecting
    neighbors, sorts those with points on v radially about v's center (entry
    point: the minimum-angle new vertex, ties in component order), and
    splices itself through them in that order, each component's members in
    increasing id.  The vertices are numbered in that splice order; the
    rings equal the naive builder's up to those ids.
    """
    n = len(system)
    if len(clustering.component_counts) != n:
        raise InvariantViolation("clustering report does not match the system")
    order, rank = system.radius_order()
    owner, member, comp = system.smaller_components()
    found = clustering_check(system).component_counts
    bad = np.flatnonzero(found != clustering.component_counts)
    if len(bad):
        v = bad[np.argmin(rank[bad])]
        raise InvariantViolation(
            f"clustering report claims {clustering.component_counts[v]} "
            f"components at vertex {v}, found {found[v]}"
        )
    x, y, i, j, side = _intersections(system)
    angle = _angles(system, x, y, i, j)
    # v splices the vertex into the ring of w, which came before it.
    later = rank[j] > rank[i]
    v, w = np.where(later, j, i), np.where(later, i, j)
    slots = owner * np.int64(n) + member
    by_key = np.argsort(slots, kind="stable")
    part = comp[by_key[index_of(slots[by_key], v * np.int64(n) + w)[0]]]
    entry = np.full(len(comp), np.inf)
    np.minimum.at(entry, part, np.where(later, angle[1], angle[0]))
    splice = np.lexsort((np.arange(len(x)), w, part, entry[part], rank[v]))
    cols = (c[splice] for c in (x, y, i, j, side))
    return _arrangement(system, *cols, angle[:, splice], order[system.radii[order] > 0])


@dataclass(frozen=True)
class ComplexityAudit:
    vertex_count: int
    per_vertex_ratio: float


def complexity_audit(arr: CircleArrangement, system: DiskSystem) -> ComplexityAudit:
    """Check V <= 2 * |pairs| and report V and V/n."""
    v = arr.intersection_vertex_count
    bound = 2 * len(system.pairs)
    if v > bound:
        raise InvariantViolation(
            f"arrangement has {v} intersection vertices, pair bound is {bound}"
        )
    n = max(len(system), 1)
    return ComplexityAudit(v, v / n)


def system_ply(system: DiskSystem) -> int:
    """Exact max ply of the system: the deepest point of the plane.

    The maximum closed-disk depth is attained at a circle-circle crossing
    or at a disk center, so those candidates suffice.  A center's depth is
    its center ply (every disk covering it is a pair partner), so only the
    crossings go through the point join.
    """
    x, y = _intersections(system)[:2]
    depths = covering_counts(system, np.column_stack([x, y]))
    return max(system.max_center_ply(), int(depths.max(initial=0)))
