"""Natural disk neighborhood systems: construction, ply, and charging audits.

Each vertex gets a disk of radius half the Euclidean length of its longest
incident edge (zero for isolated vertices), so the disk intersection graph
contains the source graph.  All disk predicates use closed disks and
correctly rounded ``hypot`` distances: an edge's two endpoint disks then
satisfy dist <= r_u + r_v exactly, even in floating point.

Pair enumeration and point-coverage queries run on per-radius-band uniform
grids (doubling radius classes, cell = 4 * band base), which keeps candidate
windows at one cell in every direction without assuming a bounded radius
ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._arrays import sorted_unique
from .errors import ConfigError, ValidationError
from .graphs import GeometricGraph


@dataclass(frozen=True)
class Disk:
    vertex: int
    center: tuple[float, float]
    radius: float


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

    def disk(self, i: int) -> Disk:
        return Disk(
            int(self.vertices[i]),
            (float(self.centers[i, 0]), float(self.centers[i, 1])),
            float(self.radii[i]),
        )

    @property
    def disks(self) -> list[Disk]:
        return [self.disk(i) for i in range(len(self))]

    def pair_adjacency(self):
        """CSR over the intersection graph: (indptr, neighbor positions)."""
        if self._adjacency is None:
            n = len(self)
            deg = np.zeros(n, dtype=np.int64)
            if len(self.pairs):
                np.add.at(deg, self.pairs[:, 0], 1)
                np.add.at(deg, self.pairs[:, 1], 1)
            indptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(deg, out=indptr[1:])
            nbr = np.empty(2 * len(self.pairs), dtype=np.int64)
            cursor = indptr[:-1].copy()
            for i, j in self.pairs:
                nbr[cursor[i]] = j
                cursor[i] += 1
                nbr[cursor[j]] = i
                cursor[j] += 1
            self._adjacency = (indptr, nbr)
        return self._adjacency

    def degrees(self) -> np.ndarray:
        indptr, _ = self.pair_adjacency()
        return np.diff(indptr)

    def center_ply(self) -> np.ndarray:
        """Per-position count of disks covering that position's center."""
        if self._center_ply is None:
            self._center_ply = covering_counts(self, self.centers)
        return self._center_ply

    def max_center_ply(self) -> int:
        if len(self) == 0:
            return 0
        return int(self.center_ply().max())

    def subset(self, positions) -> "DiskSystem":
        """Sub-system induced by the given positions (pairs filtered)."""
        positions = np.asarray(sorted(positions), dtype=np.int64)
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


def _bucket(points, cell):
    """dict (cx, cy) -> positional index array."""
    cx = np.floor(points[:, 0] / cell).astype(np.int64)
    cy = np.floor(points[:, 1] / cell).astype(np.int64)
    order = np.lexsort((cy, cx))
    cx, cy = cx[order], cy[order]
    buckets = {}
    if len(order) == 0:
        return buckets
    change = np.flatnonzero((np.diff(cx) != 0) | (np.diff(cy) != 0)) + 1
    starts = np.concatenate([[0], change])
    stops = np.concatenate([change, [len(order)]])
    for s, t in zip(starts, stops):
        buckets[(int(cx[s]), int(cy[s]))] = order[s:t]
    return buckets


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
    band_values = np.unique(bands)
    grids = {}
    members = {}
    for b in band_values:
        idx = np.flatnonzero(bands == b)
        members[int(b)] = idx
        grids[int(b)] = (_bucket(centers[idx], 4.0 * 2.0 ** float(b)), idx)

    out = []

    # Same-band pairs: cell = 4 * band base >= 2 * max radius in the band,
    # so intersecting same-band disks sit within one cell of each other.
    forward = ((0, 0), (1, 0), (0, 1), (1, 1), (1, -1))
    for b in band_values:
        buckets, idx = grids[int(b)]
        for (cx, cy), local_a in buckets.items():
            ga = idx[local_a]
            for ox, oy in forward:
                nb = buckets.get((cx + ox, cy + oy))
                if nb is None:
                    continue
                gb = idx[nb]
                if ox == 0 and oy == 0:
                    ii, jj = np.triu_indices(len(ga), k=1)
                    cu, cv = ga[ii], ga[jj]
                else:
                    cu = np.repeat(ga, len(gb))
                    cv = np.tile(gb, len(ga))
                if len(cu) == 0:
                    continue
                d = np.hypot(
                    centers[cu, 0] - centers[cv, 0], centers[cu, 1] - centers[cv, 1]
                )
                keep = d <= radii[cu] + radii[cv]
                if keep.any():
                    out.append(
                        np.column_stack(
                            [np.minimum(cu[keep], cv[keep]), np.maximum(cu[keep], cv[keep])]
                        )
                    )

    # Cross-band pairs: query each disk against every higher band's grid;
    # there r_i + max_r(band) < one cell, so a 3x3 window suffices.
    for bi_pos, b1 in enumerate(band_values):
        for b2 in band_values[bi_pos + 1 :]:
            buckets2, idx2 = grids[int(b2)]
            cell2 = 4.0 * 2.0 ** float(b2)
            for i in members[int(b1)]:
                cx = int(math.floor(centers[i, 0] / cell2))
                cy = int(math.floor(centers[i, 1] / cell2))
                cand = []
                for ox in (-1, 0, 1):
                    for oy in (-1, 0, 1):
                        hit = buckets2.get((cx + ox, cy + oy))
                        if hit is not None:
                            cand.append(idx2[hit])
                if not cand:
                    continue
                cj = np.concatenate(cand)
                d = np.hypot(centers[cj, 0] - centers[i, 0], centers[cj, 1] - centers[i, 1])
                keep = d <= radii[i] + radii[cj]
                if keep.any():
                    cj = cj[keep]
                    ci = np.full(len(cj), i, dtype=np.int64)
                    out.append(
                        np.column_stack([np.minimum(ci, cj), np.maximum(ci, cj)])
                    )

    if not out:
        return np.empty((0, 2), dtype=np.int64)
    allp = np.concatenate(out)
    keys = sorted_unique(allp[:, 0] * np.int64(n) + allp[:, 1])
    return np.column_stack([keys // n, keys % n])


def covering_counts(system: DiskSystem, points) -> np.ndarray:
    """Number of system disks covering each query point (closed disks)."""
    points = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    counts = np.zeros(len(points), dtype=np.int64)
    if len(system) == 0 or len(points) == 0:
        return counts
    bands = _band_index(system.radii)
    for b in np.unique(bands):
        idx = np.flatnonzero(bands == b)
        cell = 4.0 * 2.0 ** float(b)
        point_buckets = _bucket(points, cell)
        disk_buckets = _bucket(system.centers[idx], cell)
        for (cx, cy), local_d in disk_buckets.items():
            gd = idx[local_d]
            near = []
            for ox in (-1, 0, 1):
                for oy in (-1, 0, 1):
                    hit = point_buckets.get((cx + ox, cy + oy))
                    if hit is not None:
                        near.append(hit)
            if not near:
                continue
            pi = np.concatenate(near)
            diff_x = points[pi, 0][:, None] - system.centers[gd, 0][None, :]
            diff_y = points[pi, 1][:, None] - system.centers[gd, 1][None, :]
            inside = np.hypot(diff_x, diff_y) <= system.radii[gd][None, :]
            np.add.at(counts, pi, inside.sum(axis=1))
    return counts


def covering_lists(system: DiskSystem, points) -> list[np.ndarray]:
    """Per-disk arrays of query-point indices the disk covers."""
    points = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    lists: list = [[] for _ in range(len(system))]
    if len(system) == 0 or len(points) == 0:
        return [np.empty(0, dtype=np.int64) for _ in lists]
    bands = _band_index(system.radii)
    for b in np.unique(bands):
        idx = np.flatnonzero(bands == b)
        cell = 4.0 * 2.0 ** float(b)
        point_buckets = _bucket(points, cell)
        disk_buckets = _bucket(system.centers[idx], cell)
        for (cx, cy), local_d in disk_buckets.items():
            gd = idx[local_d]
            near = []
            for ox in (-1, 0, 1):
                for oy in (-1, 0, 1):
                    hit = point_buckets.get((cx + ox, cy + oy))
                    if hit is not None:
                        near.append(hit)
            if not near:
                continue
            pi = np.concatenate(near)
            diff_x = points[pi, 0][:, None] - system.centers[gd, 0][None, :]
            diff_y = points[pi, 1][:, None] - system.centers[gd, 1][None, :]
            inside = np.hypot(diff_x, diff_y) <= system.radii[gd][None, :]
            for col, d in enumerate(gd):
                covered = pi[inside[:, col]]
                if len(covered):
                    lists[d].append(covered)
    return [
        np.unique(np.concatenate(l)) if l else np.empty(0, dtype=np.int64)
        for l in lists
    ]


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

    cover = covering_lists(system, system.centers)
    indptr, nbr = system.pair_adjacency()
    deg = np.diff(indptr).astype(np.int64)
    full_deg = deg.copy()
    active = np.ones(n, dtype=bool)
    removed = []
    while True:
        live = np.flatnonzero(active)
        if len(live) == 0 or ply[live].max() <= k:
            residual = int(ply[live].max()) if len(live) else 0
            break
        # Largest current intersection degree, lowest position on ties.
        pick = int(live[np.argmax(deg[live])])
        active[pick] = False
        removed.append(pick)
        covered = cover[pick]
        ply[covered] -= 1
        neigh = nbr[indptr[pick] : indptr[pick + 1]]
        deg[neigh] -= 1
    removed_ids = tuple(int(system.vertices[p]) for p in removed)
    max_deg = int(full_deg[removed].max()) if removed else 0
    budget = math.ceil(math.sqrt(n))
    return ExceptionalSplit(
        removed_ids, residual, max_deg, len(removed) <= budget
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
        d = np.hypot(
            system.centers[i, 0] - system.centers[j, 0],
            system.centers[i, 1] - system.centers[j, 1],
        )
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
