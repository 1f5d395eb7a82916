"""Natural disk neighborhood systems: construction, ply, and charging audits.

Each vertex gets a disk of radius half the Euclidean length of its longest
incident edge (zero for isolated vertices), so the disk intersection graph
contains the source graph.  All disk predicates use closed disks and
correctly rounded ``hypot`` distances: an edge's two endpoint disks then
satisfy dist <= r_u + r_v exactly, even in floating point.

The pair index comes from one banded join.  Disks fall into doubling radius
bands; band b's centers are joined (``grid_join``, cell 4 * 2^b) against
the centers of every band up to b, so each intersecting pair is found in the
band of its larger disk without assuming a bounded radius ratio.  Point
coverage uses the same per-band join.  Center ply needs no spatial query: a
disk that covers another disk's center intersects it, so center ply is
counted over the pair index.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from ._arrays import csr, grid_join, sorted_unique
from .errors import ConfigError, InvariantViolation, ValidationError
from .graphs import GeometricGraph


class DiskSystem:
    """A set of disks indexed positionally, with its intersection-pair index.

    ``vertices[i]`` is the source-graph vertex id of position ``i`` (the two
    coincide for a freshly built system; subsets keep original ids).
    ``pairs`` holds positional index pairs (i, j), i < j, of intersecting
    closed disks.
    """

    def __init__(self, vertices, centers, radii, pairs):
        # Owned copies, frozen below; callers keep their buffers writable.
        self.vertices = np.array(vertices, dtype=np.int64, copy=True)
        self.centers = np.array(centers, dtype=np.float64, copy=True).reshape(-1, 2)
        self.radii = np.array(radii, dtype=np.float64, copy=True)
        self.pairs = np.array(pairs, dtype=np.int64, copy=True).reshape(-1, 2)
        if np.any(self.radii < 0):
            raise ValidationError("negative disk radius")
        for a in (self.vertices, self.centers, self.radii, self.pairs):
            a.setflags(write=False)
        self._adjacency = None
        self._center_ply = None

    def __len__(self):
        return len(self.radii)

    def pair_adjacency(self):
        """CSR over the intersection graph: (indptr, neighbor positions)."""
        if self._adjacency is None:
            self._adjacency = csr(len(self), self.pairs[:, 0], self.pairs[:, 1])[:2]
        return self._adjacency

    def degrees(self) -> np.ndarray:
        indptr, _ = self.pair_adjacency()
        return np.diff(indptr)

    def center_ply(self) -> np.ndarray:
        """Per-position count of disks covering that position's center.

        Its own disk plus every pair partner j with hypot <= r_j: a disk
        covering a center intersects that center's disk, and the float test
        hypot <= r_j implies the pair test hypot <= r_i + r_j.
        """
        if self._center_ply is None:
            i, j = self.pairs[:, 0], self.pairs[:, 1]
            d = _pair_distances(self)
            n = len(self)
            self._center_ply = (
                1
                + np.bincount(i[d <= self.radii[j]], minlength=n)
                + np.bincount(j[d <= self.radii[i]], minlength=n)
            )
        return self._center_ply

    def max_center_ply(self) -> int:
        if len(self) == 0:
            return 0
        return int(self.center_ply().max())

    def subset(self, positions) -> "DiskSystem":
        """Sub-system induced by the given positions (pairs filtered)."""
        positions = np.sort(np.asarray(positions, dtype=np.int64))
        remap = np.full(len(self), -1, dtype=np.int64)
        remap[positions] = np.arange(len(positions))
        if len(self.pairs):
            keep = (remap[self.pairs[:, 0]] >= 0) & (remap[self.pairs[:, 1]] >= 0)
            sub_pairs = remap[self.pairs[keep]]
        else:
            sub_pairs = np.empty((0, 2), dtype=np.int64)
        return DiskSystem(
            self.vertices[positions],
            self.centers[positions],
            self.radii[positions],
            sub_pairs,
        )


# -- banded grids -------------------------------------------------------------


def _band_index(radii):
    """Doubling radius class per disk; zero radii join the smallest class."""
    bands = np.full(len(radii), 0, dtype=np.int64)
    positive = radii > 0
    if positive.any():
        bands[positive] = np.floor(np.log2(radii[positive])).astype(np.int64)
        smallest = int(bands[positive].min())
    else:
        smallest = 0
    bands[~positive] = smallest
    return bands


def build_disk_system(g: GeometricGraph) -> DiskSystem:
    """Natural disk system of a graph plus the complete intersection-pair index."""
    n = g.n
    radii = np.zeros(n, dtype=np.float64)
    if g.m:
        lengths = g.edge_lengths()
        np.maximum.at(radii, g.edge_u, lengths)
        np.maximum.at(radii, g.edge_v, lengths)
    radii *= 0.5
    pairs = _enumerate_pairs(g.xy, radii)
    return DiskSystem(np.arange(n), g.xy, radii, pairs)


def _enumerate_pairs(centers, radii):
    n = len(radii)
    if n < 2:
        return np.empty((0, 2), dtype=np.int64)
    bands = _band_index(radii)
    keys = []
    # A band-b disk has radius < 2^(b + 1), so two intersecting disks of
    # bands <= b sit less than one cell (4 * 2^b) apart.
    for b in sorted_unique(bands):
        lower = np.flatnonzero(bands <= b)
        band = np.flatnonzero(bands == b)
        qi, sj = grid_join(centers[lower], centers[band], 4.0 * 2.0 ** float(b))
        i, j = lower[qi], band[sj]
        d = np.hypot(centers[i, 0] - centers[j, 0], centers[i, 1] - centers[j, 1])
        keep = (d <= radii[i] + radii[j]) & (i != j)
        keys.append(np.minimum(i[keep], j[keep]) * np.int64(n) + np.maximum(i[keep], j[keep]))
    keys = sorted_unique(np.concatenate(keys))
    return np.column_stack([keys // n, keys % n])


def _pair_distances(system: DiskSystem) -> np.ndarray:
    i, j = system.pairs[:, 0], system.pairs[:, 1]
    c = system.centers
    return np.hypot(c[i, 0] - c[j, 0], c[i, 1] - c[j, 1])


def covering_counts(system: DiskSystem, points) -> np.ndarray:
    """Number of system disks covering each query point (closed disks)."""
    points = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    counts = np.zeros(len(points), dtype=np.int64)
    bands = _band_index(system.radii)
    for b in sorted_unique(bands):
        band = np.flatnonzero(bands == b)
        qi, sj = grid_join(points, system.centers[band], 4.0 * 2.0 ** float(b))
        d = band[sj]
        inside = np.hypot(
            points[qi, 0] - system.centers[d, 0], points[qi, 1] - system.centers[d, 1]
        ) <= system.radii[d]
        counts += np.bincount(qi[inside], minlength=len(points))
    return counts


# -- reports ------------------------------------------------------------------


@dataclass(frozen=True)
class PlyReport:
    center_ply: np.ndarray
    max_center_ply: int
    kth_largest_center_ply: int
    max_disk_degree: int


def ply_report(system: DiskSystem) -> PlyReport:
    """Center-ply statistics: max, the floor(sqrt(n))-th largest, max degree."""
    n = len(system)
    if n == 0:
        return PlyReport(np.empty(0, dtype=np.int64), 0, 0, 0)
    ply = system.center_ply()
    k = max(1, int(math.isqrt(n)))
    kth = int(np.sort(ply)[::-1][k - 1])
    deg = system.degrees()
    return PlyReport(ply, int(ply.max()), kth, int(deg.max()) if n else 0)


@dataclass(frozen=True)
class ExceptionalSplit:
    """Greedy certificate that the system is exceptional k-ply.

    ``removed`` holds original vertex ids (descending intersection degree
    order); the residual system has max center ply <= k.  The sqrt budget
    flag records |removed| <= ceil(sqrt(n)) and the removed disks' maximum
    intersection degree in the full system.
    """

    removed: tuple
    residual_max_center_ply: int
    removed_max_degree: int
    within_sqrt_budget: bool


def exceptional_decomposition(system: DiskSystem, k: int) -> ExceptionalSplit:
    if k < 1:
        raise ConfigError("k must be >= 1")
    n = len(system)
    if n == 0:
        return ExceptionalSplit((), 0, 0, True)
    ply = system.center_ply().copy()
    if ply.max() <= k:
        return ExceptionalSplit((), int(ply.max()) if n else 0, 0, True)

    c, r = system.centers, system.radii
    indptr, nbr = system.pair_adjacency()
    full_deg = np.diff(indptr)
    deg = full_deg.copy()
    active = np.ones(n, dtype=bool)
    # Live positions per ply value; top falls to the largest live ply.
    count = np.bincount(ply)
    top = len(count) - 1
    # Min-heap of keys -degree * n + position, one per live position: the
    # top is the largest degree, lowest position on ties.  A key whose
    # degree has since fallen is re-pushed when it reaches the top.  Sorted,
    # the initial list is a heap.
    heap = np.sort(np.arange(n) - full_deg * n).tolist()
    removed = []
    while top > k:
        d, pick = divmod(heapq.heappop(heap), n)
        if -d != deg[pick]:
            heapq.heappush(heap, pick - int(deg[pick]) * n)
            continue
        active[pick] = False
        removed.append(pick)
        count[ply[pick]] -= 1
        neigh = nbr[indptr[pick] : indptr[pick + 1]]
        deg[neigh] -= 1
        # pick's own center leaves with it; the others it covers are its
        # live partners' centers within r_pick.
        live = neigh[active[neigh]]
        dist = np.hypot(c[live, 0] - c[pick, 0], c[live, 1] - c[pick, 1])
        covered = live[dist <= r[pick]]
        np.subtract.at(count, ply[covered], 1)
        ply[covered] -= 1
        np.add.at(count, ply[covered], 1)
        while count[top] == 0 and top > 0:
            top -= 1
    removed_ids = tuple(int(system.vertices[p]) for p in removed)
    max_deg = int(full_deg[removed].max()) if removed else 0
    budget = math.ceil(math.sqrt(n))
    return ExceptionalSplit(
        removed_ids, top, max_deg, len(removed) <= budget
    )


@dataclass(frozen=True)
class ChargeAudit:
    max_containment_charges: int
    max_tall_charges: int
    containment: np.ndarray
    tall: np.ndarray


def charge_audit(system: DiskSystem) -> ChargeAudit:
    """Count intersection charges per the two-rule accounting.

    Every intersecting pair charges exactly one of its disks: a containment
    charge to a disk whose center lies inside the other (smaller (radius,
    position) disk when both qualify), otherwise a tall charge to the
    smaller (radius, position) disk.
    """
    n = len(system)
    containment = np.zeros(n, dtype=np.int64)
    tall = np.zeros(n, dtype=np.int64)
    if len(system.pairs):
        i = system.pairs[:, 0]
        j = system.pairs[:, 1]
        d = _pair_distances(system)
        ci_inside_j = d <= system.radii[j]
        cj_inside_i = d <= system.radii[i]
        i_smaller = (system.radii[i] < system.radii[j]) | (
            (system.radii[i] == system.radii[j]) & (i < j)
        )
        is_containment = ci_inside_j | cj_inside_i
        # Receiver of a containment charge: the disk whose center is inside
        # the other; the smaller disk when both contain each other's center.
        receiver_cont = np.where(
            ci_inside_j & cj_inside_i,
            np.where(i_smaller, i, j),
            np.where(ci_inside_j, i, j),
        )
        receiver_tall = np.where(i_smaller, i, j)
        np.add.at(containment, receiver_cont[is_containment], 1)
        np.add.at(tall, receiver_tall[~is_containment], 1)
    return ChargeAudit(
        int(containment.max()) if n else 0,
        int(tall.max()) if n else 0,
        containment,
        tall,
    )


# -- invariant checks ---------------------------------------------------------


def _missing_pairs(system: DiskSystem, a, b) -> np.ndarray:
    """Mask of the k with a[k] != b[k] whose disks are not an indexed pair."""
    a, b = np.minimum(a, b), np.maximum(a, b)
    n = np.int64(len(system))
    keys = np.sort(system.pairs[:, 0] * n + system.pairs[:, 1])
    want = a * n + b
    found = np.searchsorted(keys, want, "right") > np.searchsorted(keys, want, "left")
    return (a != b) & ~found


def check_edges_are_pairs(g: GeometricGraph, system: DiskSystem) -> None:
    """Raise InvariantViolation unless every edge joins intersecting disks."""
    bad = np.flatnonzero(_missing_pairs(system, g.edge_u, g.edge_v))
    if len(bad):
        u, v = int(g.edge_u[bad[0]]), int(g.edge_v[bad[0]])
        raise InvariantViolation(f"edge ({u}, {v}) missing from disk pairs")


def check_crossing_charges(g: GeometricGraph, system: DiskSystem, proper) -> None:
    """Raise InvariantViolation unless every proper crossing's near
    endpoints own the same or intersecting disks.

    ``proper`` is a CrossingTable of proper crossings.  The near endpoint of
    an edge is the one closer to the crossing point, the lower vertex id on
    ties.
    """
    px, py = proper.x, proper.y
    near = []
    for e in (proper.e1, proper.e2):
        u, v = g.edge_u[e], g.edge_v[e]
        # float_power is libm pow, the rounding of a scalar ``** 2``.
        du = np.float_power(g.xy[u, 0] - px, 2) + np.float_power(g.xy[u, 1] - py, 2)
        dv = np.float_power(g.xy[v, 0] - px, 2) + np.float_power(g.xy[v, 1] - py, 2)
        near.append(np.where((du < dv) | ((du == dv) & (u <= v)), u, v))
    bad = np.flatnonzero(_missing_pairs(system, *near))
    if len(bad):
        i = bad[0]
        a, b = sorted(int(x[i]) for x in near)
        raise InvariantViolation(
            f"crossing ({proper.e1[i]}, {proper.e2[i]}) near-endpoint disks ({a}, {b}) do not intersect"
        )
