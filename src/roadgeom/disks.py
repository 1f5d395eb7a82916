"""Natural disk neighborhood systems: construction, ply, and charging audits.

Each vertex gets a disk of radius half the Euclidean length of its longest
incident edge (zero for isolated vertices), so the disk intersection graph
contains the source graph.  All disk predicates use closed disks and
correctly rounded ``hypot`` distances: an edge's two endpoint disks then
satisfy dist <= r_u + r_v exactly, even in floating point.

The pair index comes from one banded join.  Disks fall into doubling radius
bands; band b's centers are joined (``grid_join``, cell 4 * 2^b) against
the centers of every band up to b, so each intersecting pair is found in the
band of its larger disk without assuming a bounded radius ratio; each
block of the join's pairs is filtered as it comes.  Point coverage uses the
same per-band join.  Center ply needs no spatial query: a disk that covers
another disk's center intersects it, so center ply is counted over the pair
index.  A ``DiskSystem`` computes its two relations once, the (radius,
position) order and the per-pair center-cover flags, and every reader here
and in ``arrangement`` shares them.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from ._arrays import components, concat_ranges, csr, frozen, grid_join, index_of, sorted_unique
from .errors import ConfigError, InvariantViolation, ValidationError
from .graphs import GeometricGraph, _nearer_endpoint, _two_columns


class DiskSystem:
    """A set of disks indexed positionally, with its intersection-pair index.

    ``vertices[i]`` is the source-graph vertex id of position ``i`` (the two
    coincide for a freshly built system; subsets keep original ids).
    ``pairs`` holds positional index pairs (i, j), 0 <= i < j < n, of
    intersecting closed disks; the constructor rejects any other row.

    Completeness contract: ``pairs`` must list every intersecting pair, and
    the constructor does not check that it does.  Center ply, the charge
    audit, the exceptional split, the clustering components, the
    arrangements, ``arrangement.system_ply`` and the neighborly check all
    count over the listed pairs only, so a missing pair silently lowers a
    ply or drops a relation.  ``build_disk_system`` builds the complete
    index; ``subset`` keeps it complete.
    """

    def __init__(self, vertices, centers, radii, pairs):
        # Owned copies, frozen below; callers keep their buffers writable.
        self.vertices = np.array(vertices, dtype=np.int64, copy=True)
        self.centers = _two_columns(centers, np.float64, "disk centers")
        self.radii = np.array(radii, dtype=np.float64, copy=True)
        self.pairs = _two_columns(pairs, np.int64, "disk pairs")
        v, c, r = self.vertices, self.centers, self.radii
        if not (v.ndim == r.ndim == 1 and len(v) == len(c) == len(r)):
            raise ValidationError(f"vertices {v.shape}, centers {c.shape} and radii {r.shape} differ in positions")
        if not (np.all(np.isfinite(self.centers)) and np.all(np.isfinite(self.radii))):
            raise ValidationError("non-finite disk center or radius")
        if np.any(self.radii < 0):
            raise ValidationError("negative disk radius")
        i, j = self.pairs[:, 0], self.pairs[:, 1]
        bad = np.flatnonzero((i < 0) | (i >= j) | (j >= len(self.radii)))
        if len(bad):
            raise ValidationError(f"pair row {self.pairs[bad[0]].tolist()} is not (i, j) with 0 <= i < j < n")
        for a in (self.vertices, self.centers, self.radii, self.pairs):
            a.setflags(write=False)
        self._adjacency = None
        self._order = None
        self._cover = None
        self._center_ply = None
        self._smaller_components = None

    def __len__(self):
        return len(self.radii)

    def pair_adjacency(self):
        """CSR over the intersection graph: (indptr, neighbor positions)."""
        return self._pair_csr()[:2]

    def _pair_csr(self):
        """``pair_adjacency`` plus, per slot, whether the row's disk covers
        that neighbor's center: ``csr``'s slot >> 1 is the pair and slot & 1
        the row's side in it, so slot ^ 1 reads the neighbor's flag."""
        if self._adjacency is None:
            indptr, nbr, slot = csr(len(self), self.pairs[:, 0], self.pairs[:, 1])
            self._adjacency = indptr, nbr, frozen(self.center_cover().ravel()[slot ^ 1])
        return self._adjacency

    def degrees(self) -> np.ndarray:
        indptr, _ = self.pair_adjacency()
        return np.diff(indptr)

    def radius_order(self):
        """(order, rank): the positions sorted by (radius, position), and
        each position's place in that order.  Position i comes before j
        exactly when r_i < r_j, or r_i == r_j and i < j."""
        if self._order is None:
            n = len(self)
            order = np.lexsort((np.arange(n), self.radii))
            rank = np.empty(n, dtype=np.int64)
            rank[order] = np.arange(n)
            self._order = frozen(order), frozen(rank)
        return self._order

    def center_cover(self) -> np.ndarray:
        """Read-only (len(pairs), 2) flags: for pair (i, j), whether c_i lies
        in disk j and whether c_j lies in disk i (closed disks,
        hypot(c_i - c_j) <= r_j and <= r_i).  ``hypot`` is even in each
        argument, so either orientation of the pair gives the same bits."""
        if self._cover is None:
            i, j = self.pairs[:, 0], self.pairs[:, 1]
            c, r = self.centers, self.radii
            d = np.hypot(c[i, 0] - c[j, 0], c[i, 1] - c[j, 1])
            self._cover = frozen(np.column_stack([d <= r[j], d <= r[i]]))
        return self._cover

    def center_ply(self) -> np.ndarray:
        """Per-position count of disks covering that position's center.

        Its own disk plus every pair partner whose disk covers it: a disk
        covering a center intersects that center's disk, and the float test
        hypot <= r_j implies the pair test hypot <= r_i + r_j, so the pair
        index holds every such partner.
        """
        if self._center_ply is None:
            covered = self.pairs[self.center_cover()]
            self._center_ply = 1 + np.bincount(covered, minlength=len(self))
        return self._center_ply

    def max_center_ply(self) -> int:
        if len(self) == 0:
            return 0
        return int(self.center_ply().max())

    def smaller_components(self):
        """The intersecting neighbors of each position v that come before v
        in (radius, position) order, grouped into connected components.

        Returns (owner, member, comp) over slots in pair-adjacency order:
        slot k holds neighbor member[k] of owner[k], and comp[k] is the
        first slot of its component among owner[k]'s slots, so components
        are named in the order their first member appears in v's row.  Two
        members u, x of v's set are joined when they intersect; each such
        triangle is found once, from the later of u and x.
        """
        if self._smaller_components is None:
            n = len(self)
            indptr, nbr = self.pair_adjacency()
            rank = self.radius_order()[1]
            owner = np.repeat(np.arange(n), np.diff(indptr))
            smaller = rank[nbr] < rank[owner]
            owner, member = owner[smaller], nbr[smaller]
            ptr = np.searchsorted(owner, np.arange(n + 1))
            size = np.diff(ptr)[member]
            slot = np.repeat(np.arange(len(member)), size)
            other = member[concat_ranges(ptr[member], size)]
            keys = owner * np.int64(n) + member
            by_key = np.argsort(keys, kind="stable")
            keys = keys[by_key]
            query = owner[slot] * np.int64(n) + other
            at, joined = index_of(keys, query)
            comp = components(len(member), slot[joined], by_key[at[joined]])
            for a in (owner, member, comp):
                a.setflags(write=False)
            self._smaller_components = owner, member, comp
        return self._smaller_components

    def subset(self, positions) -> "DiskSystem":
        """Sub-system induced by the given positions (pairs filtered)."""
        positions = np.sort(np.asarray(positions, dtype=np.int64))
        remap = np.full(len(self), -1, dtype=np.int64)
        remap[positions] = np.arange(len(positions))
        keep = (remap[self.pairs[:, 0]] >= 0) & (remap[self.pairs[:, 1]] >= 0)
        return DiskSystem(
            self.vertices[positions],
            self.centers[positions],
            self.radii[positions],
            remap[self.pairs[keep]],
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
        for qi, sj in grid_join(centers[lower], centers[band], 4.0 * 2.0 ** float(b)):
            i, j = lower[qi], band[sj]
            d = np.hypot(centers[i, 0] - centers[j, 0], centers[i, 1] - centers[j, 1])
            keep = (d <= radii[i] + radii[j]) & (i != j)
            keys.append(np.minimum(i[keep], j[keep]) * np.int64(n) + np.maximum(i[keep], j[keep]))
    keys = sorted_unique(np.concatenate(keys))
    return np.column_stack([keys // n, keys % n])


def covering_counts(system: DiskSystem, points) -> np.ndarray:
    """Number of system disks covering each query point (closed disks)."""
    points = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    px, py = points[:, 0].copy(), points[:, 1].copy()
    counts = np.zeros(len(points), dtype=np.int64)
    bands = _band_index(system.radii)
    for b in sorted_unique(bands):
        band = np.flatnonzero(bands == b)
        cx, cy, r = system.centers[band, 0], system.centers[band, 1], system.radii[band]
        # A band-b radius is below the cell side 2^(b + 1), and hypot is at
        # least the larger coordinate gap, so a covered point lies in a cell
        # at most one away from the center's (both quotients exact).
        for qi, sj in grid_join(points, system.centers[band], 2.0 ** float(b + 1)):
            inside = np.hypot(px[qi] - cx[sj], py[qi] - cy[sj]) <= r[sj]
            # A block holds the pairs of the queries qi[0] .. qi[-1].
            if len(qi):
                counts[qi[0] : qi[-1] + 1] += np.bincount(qi[inside] - qi[0], minlength=qi[-1] - qi[0] + 1)
    return counts


# -- reports ------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
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
    return PlyReport(ply, int(ply.max()), kth, int(system.degrees().max()))


@dataclass(frozen=True, eq=False)
class ExceptionalSplit:
    """Greedy certificate that the system is exceptional k-ply.

    ``removed`` holds original vertex ids as a read-only int64 array
    (descending intersection degree order); the residual system has max
    center ply <= k.  The sqrt budget flag records |removed| <=
    ceil(sqrt(n)) and the removed disks' maximum intersection degree in the
    full system.
    """

    removed: np.ndarray
    residual_max_center_ply: int
    removed_max_degree: int
    within_sqrt_budget: bool


def exceptional_decomposition(system: DiskSystem, k: int) -> ExceptionalSplit:
    if k < 1:
        raise ConfigError("k must be >= 1")
    n = len(system)
    ply = system.center_ply().copy()
    top = int(ply.max(initial=0))
    if top <= k:
        return ExceptionalSplit(frozen(np.empty(0, dtype=np.int64)), top, 0, True)

    indptr, nbr, held = system._pair_csr()
    full_deg = np.diff(indptr)
    deg = full_deg.copy()
    active = np.ones(n, dtype=bool)
    # Live positions per ply value; top falls to the largest live ply.
    count = np.bincount(ply)
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
        row = slice(indptr[pick], indptr[pick + 1])
        neigh = nbr[row]
        deg[neigh] -= 1
        # pick's own center leaves with it; the others it covers are its
        # live partners' centers.
        covered = neigh[held[row] & active[neigh]]
        np.subtract.at(count, ply[covered], 1)
        ply[covered] -= 1
        np.add.at(count, ply[covered], 1)
        while count[top] == 0 and top > 0:
            top -= 1
    return ExceptionalSplit(
        frozen(system.vertices[removed]), top, int(full_deg[removed].max()),
        len(removed) <= math.ceil(math.sqrt(n)),
    )


@dataclass(frozen=True, eq=False)
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
    i, j = system.pairs[:, 0], system.pairs[:, 1]
    ci_inside_j, cj_inside_i = system.center_cover().T
    rank = system.radius_order()[1]
    smaller = np.where(rank[i] < rank[j], i, j)
    # Receiver of a containment charge: the disk whose center is inside
    # the other; the smaller disk when both contain each other's center.
    receiver = np.where(ci_inside_j & cj_inside_i, smaller, np.where(ci_inside_j, i, j))
    contained = ci_inside_j | cj_inside_i
    containment = np.bincount(receiver[contained], minlength=n)
    tall = np.bincount(smaller[~contained], minlength=n)
    return ChargeAudit(int(containment.max(initial=0)), int(tall.max(initial=0)), containment, tall)


# -- invariant checks ---------------------------------------------------------


def _missing_pairs(system: DiskSystem, a, b) -> np.ndarray:
    """Mask of the k with a[k] != b[k] whose disks are not an indexed pair."""
    a, b = np.minimum(a, b), np.maximum(a, b)
    n = np.int64(len(system))
    keys = np.sort(system.pairs[:, 0] * n + system.pairs[:, 1])
    return (a != b) & ~index_of(keys, a * n + b)[1]


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
    near = [_nearer_endpoint(g, e, proper.x, proper.y) for e in (proper.e1, proper.e2)]
    bad = np.flatnonzero(_missing_pairs(system, *near))
    if len(bad):
        i = bad[0]
        a, b = sorted(int(x[i]) for x in near)
        raise InvariantViolation(
            f"crossing ({proper.e1[i]}, {proper.e2[i]}) near-endpoint disks ({a}, {b}) do not intersect"
        )
