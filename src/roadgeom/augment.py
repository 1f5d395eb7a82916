"""Grid augmentation by axis-ray shortcuts, and the two locality diagnostics.

A shortcut points from a vertex to an endpoint of the first non-incident
base edge hit by one of the four axis rays (the endpoint nearer the hit
point, lower id on ties).  Shortcuts are analysis devices: they cap the hop
distance between centers of intersecting disks, which the neighborly check
measures, but they never participate in routing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._arrays import arcs_csr, components, concat_ranges
from .crossings import PlanarizedGraph
from .disks import DiskSystem
from .errors import ConfigError
from .graphs import GeometricGraph

_DIRECTIONS = ("up", "down", "left", "right")


@dataclass(frozen=True)
class MixedAugmentedGraph:
    base: GeometricGraph
    shortcuts: tuple  # (origin, target, direction)

    def out_neighbors(self):
        """Directed CSR (indptr, neighbor): each vertex lists its base
        neighbors in edge order, then its shortcut targets."""
        g = self.base
        arcs = np.array([(o, t) for o, t, _ in self.shortcuts], dtype=np.int64).reshape(-1, 2)
        tail = np.concatenate([np.column_stack([g.edge_u, g.edge_v]).ravel(), arcs[:, 0]])
        head = np.concatenate([np.column_stack([g.edge_v, g.edge_u]).ravel(), arcs[:, 1]])
        return arcs_csr(g.n, tail, head)[:2]


@dataclass(frozen=True)
class NeighborlyReport:
    max_hops_augmented: int
    max_hops_plain: int
    augmented_truncated: bool
    plain_truncated: bool
    worst_pairs: tuple  # ((v, w), augmented hops) sorted worst-first


@dataclass(frozen=True)
class ClusteringReport:
    component_counts: np.ndarray
    max_components: int


class _SlabIndex:
    """1-D uniform slabs over an interval coordinate.  An edge registers in
    every slab its interval overlaps, unless that is more than m slabs: such
    a wide edge is a candidate for every query instead."""

    def __init__(self, lo, hi):
        spans = hi - lo
        positive = spans[spans > 0]
        self.width = max(float(np.median(positive)) if len(positive) else 1.0, 1e-12)
        first, last = np.floor(lo / self.width), np.floor(hi / self.width)
        # Written so that NaN and inf fail the test too.
        if not np.abs(np.concatenate([first, last])).max(initial=0.0) < 2.0**53:
            raise ConfigError("coordinate range too large for the slab index")
        count = last - first + 1
        narrow = count <= len(lo)
        self.wide = np.flatnonzero(~narrow)
        count = count[narrow].astype(np.int64)
        slab = concat_ranges(first[narrow].astype(np.int64), count)
        order = np.argsort(slab, kind="stable")
        keys, starts = np.unique(slab[order], return_index=True)
        edges = np.repeat(np.flatnonzero(narrow), count)[order]
        self.buckets = dict(zip(keys.tolist(), np.split(edges, starts[1:])))

    def candidates(self, q):
        bucket = self.buckets.get(math.floor(q / self.width), self.wide[:0])
        return np.concatenate([bucket, self.wide]) if len(self.wide) else bucket


def _first_hit(g, xs1, ys1, xs2, ys2, slab, v, vx, vy, direction):
    """First non-incident edge hit by the axis ray from v; returns
    (edge, hit point) or None."""
    vertical = direction in ("up", "down")
    cand = slab.candidates(vx if vertical else vy)
    cand = cand[(g.edge_u[cand] != v) & (g.edge_v[cand] != v)]
    if vertical:
        a1, a2, b1, b2, q_axis, q_ray = xs1[cand], xs2[cand], ys1[cand], ys2[cand], vx, vy
    else:
        a1, a2, b1, b2, q_axis, q_ray = ys1[cand], ys2[cand], xs1[cand], xs2[cand], vy, vx
    inside = (np.minimum(a1, a2) <= q_axis) & (q_axis <= np.maximum(a1, a2))
    cand, a1, a2, b1, b2 = cand[inside], a1[inside], a2[inside], b1[inside], b2[inside]
    if len(cand) == 0:
        return None

    degenerate = a1 == a2  # edge collinear with the ray's axis line
    with np.errstate(invalid="ignore", divide="ignore"):
        t = (q_axis - a1) / (a2 - a1)
    hit = b1 + t * (b2 - b1)
    if degenerate.any():
        fwd = direction in ("up", "right")
        lo = np.minimum(b1, b2)
        hi = np.maximum(b1, b2)
        # First edge point along the ray: the origin itself if the edge
        # straddles it, else the nearer endpoint; NaN when behind the ray.
        straddle = (lo <= q_ray) & (q_ray <= hi)
        along = np.where(straddle, q_ray, lo if fwd else hi)
        along = np.where((hi < q_ray) if fwd else (lo > q_ray), np.nan, along)
        hit = np.where(degenerate, along, hit)

    if direction in ("up", "right"):
        ok = hit >= q_ray
    else:
        ok = hit <= q_ray
    ok &= np.isfinite(hit)
    if not ok.any():
        return None
    cand, hit = cand[ok], hit[ok]
    distance = np.abs(hit - q_ray)
    order = np.lexsort((cand, distance))
    e = int(cand[order[0]])
    h = float(hit[order[0]])
    return (e, (vx, h) if vertical else (h, vy))


def grid_augment(p: PlanarizedGraph) -> MixedAugmentedGraph:
    """Shortcuts for every base vertex along the four axis rays.

    Rays shoot against the base edge set; targets are base-edge endpoints,
    so each vertex's out-degree grows by at most four.  Rays that pass
    exactly through a vertex of a non-incident edge hit that edge there;
    an edge collinear with the ray is hit at the ray origin itself when it
    straddles it, else at its nearer endpoint.  First-hit ties break to the
    lower edge index.
    """
    g = p.base
    xs1, ys1, xs2, ys2 = g.segment_arrays()
    slab_x = _SlabIndex(np.minimum(xs1, xs2), np.maximum(xs1, xs2))
    slab_y = _SlabIndex(np.minimum(ys1, ys2), np.maximum(ys1, ys2))
    shortcuts = []
    for v in range(g.n):
        vx, vy = float(g.xy[v, 0]), float(g.xy[v, 1])
        for direction in _DIRECTIONS:
            slab = slab_x if direction in ("up", "down") else slab_y
            found = _first_hit(g, xs1, ys1, xs2, ys2, slab, v, vx, vy, direction)
            if found is None:
                continue
            e, (hx, hy) = found
            du = (xs1[e] - hx) ** 2 + (ys1[e] - hy) ** 2
            dv = (xs2[e] - hx) ** 2 + (ys2[e] - hy) ** 2
            if du < dv or (du == dv and g.edge_u[e] < g.edge_v[e]):
                target = int(g.edge_u[e])
            else:
                target = int(g.edge_v[e])
            shortcuts.append((v, target, direction))
    return MixedAugmentedGraph(g, tuple(shortcuts))


def _pair_hops(indptr, nbr, start, goal, cutoff):
    """Hop count of the shortest path start[k] -> goal[k] for every k, or -1
    when it is longer than ``cutoff`` or there is none.

    One level-synchronous BFS per distinct start answers all of its goals;
    it stops once every goal has a hop count or at depth ``cutoff``.  Goals
    outside the start's (weakly) connected component get no search.
    """
    n = len(indptr) - 1
    label = components(n, np.repeat(np.arange(n), np.diff(indptr)), nbr)
    hops = np.full(len(start), -1, dtype=np.int64)
    live = np.flatnonzero(label[start] == label[goal])
    live = live[np.argsort(start[live], kind="stable")]
    sources, first = np.unique(start[live], return_index=True)
    ptr, adj = indptr.tolist(), nbr.tolist()
    seen = [-1] * n
    for source, group in zip(sources.tolist(), np.split(live, first[1:])):
        goals = goal[group].tolist()
        pending, found = set(goals) - {source}, {source: 0}
        seen[source] = source
        frontier, depth = [source], 0
        while pending and frontier and depth < cutoff:
            depth += 1
            reached = []
            for u in frontier:
                for x in adj[ptr[u] : ptr[u + 1]]:
                    if seen[x] != source:
                        seen[x] = source
                        reached.append(x)
                        if x in pending:
                            found[x] = depth
                            pending.discard(x)
            frontier = reached
        hops[group] = [found.get(w, -1) for w in goals]
    return hops


def neighborly_check(
    a: MixedAugmentedGraph, s: DiskSystem, cutoff: int = 250
) -> NeighborlyReport:
    """Max hop distance between centers of intersecting disks, both ways.

    Measured on the augmented out-graph and on the plain base graph;
    searches are cut off at ``cutoff`` hops and truncation is flagged
    (truncated pairs count as ``cutoff`` in the max).
    """
    if cutoff < 1:
        raise ConfigError("cutoff must be >= 1")
    if len(s) != a.base.n:
        raise ConfigError("disk system and graph vertex sets differ")
    n = a.base.n
    v, w = s.vertices[s.pairs[:, 0]], s.vertices[s.pairs[:, 1]]
    # Each pair is searched from its endpoint of larger disk degree, in the
    # out-graph for one direction and in its reverse for the other, so the
    # few wide disks answer all of their pairs and the rest search locally.
    degree = np.bincount(np.concatenate([v, w]), minlength=n)
    swap = degree[w] > degree[v]
    hub, other = np.where(swap, w, v), np.where(swap, v, w)
    indptr, nbr = a.out_neighbors()
    reverse = arcs_csr(n, nbr, np.repeat(np.arange(n), np.diff(indptr)))[:2]
    out_hops = _pair_hops(indptr, nbr, hub, other, cutoff)
    in_hops = _pair_hops(*reverse, hub, other, cutoff)
    # The plain graph is undirected: one direction covers both.
    plain = _pair_hops(*a.base.adjacency()[:2], hub, other, cutoff)
    cut_aug, cut_plain = (out_hops < 0) | (in_hops < 0), plain < 0
    worst = np.maximum(out_hops, in_hops)
    worst[cut_aug] = cutoff
    plain[cut_plain] = cutoff
    top = np.lexsort((w, v, -worst))[:10]
    return NeighborlyReport(
        int(worst.max(initial=0)),
        int(plain.max(initial=0)),
        bool(cut_aug.any()),
        bool(cut_plain.any()),
        tuple(((int(v[k]), int(w[k])), int(worst[k])) for k in top),
    )


def smaller_neighbor_components(s: DiskSystem) -> list:
    """Per position v: the connected components of the intersecting
    neighbors of v that come before v in (radius, position) order.

    Each component is a sorted position list; components appear in the
    order their first member appears in v's pair-adjacency row.
    """
    n = len(s)
    indptr, nbr = s.pair_adjacency()
    owner = np.repeat(np.arange(n), np.diff(indptr))
    r_own, r_nbr = s.radii[owner], s.radii[nbr]
    smaller = (r_nbr < r_own) | ((r_nbr == r_own) & (nbr < owner))
    sub_ptr = np.searchsorted(owner[smaller], np.arange(n + 1)).tolist()
    members_of = nbr[smaller].tolist()
    ptr, adj = indptr.tolist(), nbr.tolist()
    mark = [-1] * n  # v while a member of v's set is still unvisited
    out = []
    for v in range(n):
        members = members_of[sub_ptr[v] : sub_ptr[v + 1]]
        for u in members:
            mark[u] = v
        comps = []
        for first in members:
            if mark[first] != v:
                continue
            mark[first] = -1
            comp, stack = [], [first]
            while stack:
                u = stack.pop()
                comp.append(u)
                for x in adj[ptr[u] : ptr[u + 1]]:
                    if mark[x] == v:
                        mark[x] = -1
                        stack.append(x)
            comps.append(sorted(comp))
        out.append(comps)
    return out


def clustering_check(s: DiskSystem) -> ClusteringReport:
    """Connected components among each disk's not-larger intersecting
    neighbors, ordered by (radius, position)."""
    counts = np.array([len(c) for c in smaller_neighbor_components(s)], dtype=np.int64)
    return ClusteringReport(counts, int(counts.max()) if len(counts) else 0)
