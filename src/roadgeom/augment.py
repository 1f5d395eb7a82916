"""Grid augmentation by axis-ray shortcuts, and the two locality diagnostics.

A shortcut points from a vertex to an endpoint of the first non-incident
base edge hit by one of the four axis rays (the endpoint nearer the hit
point, lower id on ties).  Shortcuts are analysis devices: they cap the hop
distance between centers of intersecting disks, which the neighborly check
measures, but they never participate in routing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._arrays import arcs_csr, components, concat_ranges, frozen, index_of, range_blocks, sorted_unique
from . import crossings
from .disks import DiskSystem
from .errors import ConfigError
from .graphs import GeometricGraph, _nearer_endpoint

DIRECTIONS = ("up", "down", "left", "right")  # shortcut direction codes 0..3


@dataclass(frozen=True, eq=False)
class MixedAugmentedGraph:
    base: GeometricGraph
    # Read-only (k, 3) int64 rows (origin, target, direction code), ordered
    # by origin, then code.
    shortcuts: np.ndarray

    def out_neighbors(self):
        """Directed CSR (indptr, neighbor): each vertex lists its base
        neighbors in edge order, then its shortcut targets."""
        g, arcs = self.base, self.shortcuts
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


# Sources with at least this many distinct partners, the word width, search
# bit-parallel; the rest as (source, vertex) pairs.
_WIDE = 64
# Visited (source, vertex) keys per vertex the frontier search may hold:
# 64 bytes per vertex, twice the bit-parallel search's four words.
_SEEN_BUDGET = 8


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _ray_walks(g, grid, a1, a2, b1, b2, qa, qb):
    """First hits of the rays of vertex v from (qa[v], qb[v]) along b, with
    edge k from (a1[k], b1[k]) to (a2[k], b2[k]): (ray, edge, hit) arrays,
    the hit as its b coordinate, for growing b, then for falling b.

    ``grid`` is ``crossings._segment_grid`` of the edges, a as its column
    axis.  Each ray reads the long edges, then the occupied cells of its
    column from one row behind its origin's, all rays a cell per round, keeping
    its nearest hit, lowest edge first.  With every edge within 2^48 cells
    of the origin a rounding errs by under h / 16, so a hit lies less than
    a row outside the rows its edge registers in the column: the rows more
    than one behind the origin's hold no hit ahead of it, and before
    occupied row R unread edges hit at b >= (R - 1) h.  A ray stops once
    its nearest distance is below that of (R - 1) h, which no unread one
    can equal, distances rounding monotonely; falling rays use (R + 2) h.
    """
    h, base, nrow, keys, owner, long = grid
    if not np.abs(np.concatenate([a1, a2, b1, b2]) / h).max(initial=0.0) <= 2.0**48:
        raise ConfigError("coordinate range too large for the shortcut grid")
    first = np.flatnonzero(np.diff(keys, prepend=keys[:1] - 1))
    cells, count = keys[first], np.diff(first, append=len(keys))
    # Clipped to a column just past the occupied ones (and column 0), a ray outside them walks an empty one.
    col = np.clip(np.floor(qa / h), keys.min(initial=0) // nrow - 1, keys.max(initial=0) // nrow + 1)
    col, row = col.astype(np.int64) * nrow, np.floor(qb / h) - base
    lo, hi, pool = np.minimum(a1, a2), np.maximum(a1, a2), np.concatenate([owner, long])
    n, m, found = len(qa), len(a1), []
    for s in (1, -1):
        best_d, best_e, best_hit = np.full(n, np.inf), np.full(n, m), np.full(n, np.nan)

        def read(ray, start, size):
            # Ray i meets the edges pool[start[i]:][:size[i]], a block at a time.
            for i, k in range_blocks(start, size):
                r, e = ray[i], pool[k]
                keep = (g.edge_u[e] != r) & (g.edge_v[e] != r) & (lo[e] <= qa[r]) & (qa[r] <= hi[e])
                r, e = r[keep], e[keep]
                q, at, e1, e2, f1, f2 = qa[r], qb[r], a1[e], a2[e], b1[e], b2[e]
                hit = f1 + (q - e1) / (e2 - e1) * (f2 - f1)
                # An edge on the ray's line is met at the origin if it straddles
                # it, else at its nearer end, which may lie behind the ray.
                hit = np.where(e1 == e2, np.clip(at, np.minimum(f1, f2), np.maximum(f1, f2)), hit)
                # Each ray's nearest hit ahead, lowest edge first, against its best so far.
                ahead = np.flatnonzero((s * (hit - at) >= 0) & np.isfinite(hit))
                r, e, hit = r[ahead], e[ahead], hit[ahead]
                d, old = np.abs(hit - at[ahead]), best_d[r]
                np.minimum.at(best_d, r, d)
                best_e[r[best_d[r] < old]] = m
                tie = np.flatnonzero(d == best_d[r])
                np.minimum.at(best_e, r[tie], e[tie])
                won = tie[e[tie] == best_e[r[tie]]]
                best_hit[r[won]] = hit[won]

        read(np.arange(n), np.full(n, len(owner)), np.full(n, len(long)))
        # Rays read cells[pos:stop] forward, or cells[stop + 1:pos + 1] back.
        shift = (s - 1) // 2
        start = col + np.clip(row - s, shift, nrow + shift).astype(np.int64)
        pos = np.searchsorted(cells, start, "left" if s > 0 else "right") + shift
        stop = np.searchsorted(cells, col + (nrow if s > 0 else 0)) + shift
        live = np.flatnonzero(pos != stop)
        while len(live):
            j = pos[live]
            read(live, first[j], count[j])
            pos[live] = j = j + s
            more = j != stop[live]
            bound = (cells[np.where(more, j, 0)] % nrow + base + (1 - 3 * s) // 2) * h
            live = live[more & ~(best_d[live] < s * (bound - qb[live]))]
        hit = np.flatnonzero(best_e < m)
        found.append((hit, best_e[hit], best_hit[hit]))
    return found


def grid_augment(p: crossings.PlanarizedGraph) -> MixedAugmentedGraph:
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
    x, y = g.xy[:, 0], g.xy[:, 1]
    # The up and down rays walk the crossing grid, which the graph keeps.
    up, down = _ray_walks(g, crossings._grid(g), xs1, xs2, ys1, ys2, x, y)
    right, left = _ray_walks(g, crossings._segment_grid(ys1, xs1, ys2, xs2), ys1, ys2, xs1, xs2, y, x)
    hits = [(r, _nearer_endpoint(g, e, x[r], h)) for r, e, h in (up, down)]
    hits += [(r, _nearer_endpoint(g, e, h, y[r])) for r, e, h in (left, right)]
    origin, target = (np.concatenate(col) for col in zip(*hits))  # in DIRECTIONS order
    code = np.repeat(np.arange(4), [len(o) for o, _ in hits])
    order = np.argsort(origin * 4 + code, kind="stable")
    return MixedAugmentedGraph(g, frozen(np.column_stack([origin, target, code])[order]))


def _pair_hops(indptr, nbr, start, goal, cutoff, label):
    """Hop count of the shortest path start[k] -> goal[k] for every k, or -1
    when it is longer than ``cutoff`` or there is none.

    ``label`` holds the graph's weak component labels: goals outside the
    start's component get no search.  Each distinct (start, goal) pair is
    searched once, level-synchronously, and a source stops once each of its
    goals has a hop count or at depth ``cutoff``.  Sources with fewer than
    ``_WIDE`` partners expand together as (source, vertex) pairs; the rest
    run bit-parallel, 64 sources to a word.
    """
    n = np.int64(len(indptr) - 1)
    hops = np.full(len(start), -1, dtype=np.int64)
    hops[start == goal] = 0
    live = np.flatnonzero((label[start] == label[goal]) & (start != goal))
    # One argsort gives the distinct keys source * n + goal, ascending, and
    # maps each pair back to its key.
    query = start[live] * n + goal[live]
    order = np.argsort(query)
    query = query[order]
    head = np.ones(len(query), dtype=bool)
    np.not_equal(query[1:], query[:-1], out=head[1:])
    keys = query[head]
    source = keys // n
    wide = np.bincount(source, minlength=n)[source] >= _WIDE
    found = np.empty(len(keys), dtype=np.int64)
    found[~wide] = _frontier_search(indptr, nbr, keys[~wide], cutoff)
    found[wide] = _word_search(indptr, nbr, keys[wide], cutoff)
    hops[live[order]] = found[np.cumsum(head) - 1]
    return hops


def _frontier_search(indptr, nbr, keys, cutoff):
    """Hops (-1 past ``cutoff``) for the sorted keys source * n + goal: all
    sources expand at once as frontier keys source * n + vertex.

    The visited keys of the live sources grow with the area each searches;
    past ``_SEEN_BUDGET`` * n of them, the live sources start over
    bit-parallel, in O(n) memory per 64 sources.
    """
    n = np.int64(len(indptr) - 1)
    hops = np.full(len(keys), -1, dtype=np.int64)
    pending = np.bincount(keys // n, minlength=n)
    frontier = np.flatnonzero(pending) * (n + 1)
    seen = frontier
    for depth in range(1, cutoff + 1):
        if not len(frontier):
            break
        source, vertex = np.divmod(frontier, n)
        count = indptr[vertex + 1] - indptr[vertex]
        reached = sorted_unique(np.repeat(source * n, count) + nbr[concat_ranges(indptr[vertex], count)])
        at, old = index_of(seen, reached)
        reached = reached[~old]
        seen = np.insert(seen, at[~old], reached)
        at, goal = index_of(keys, reached)
        hops[at[goal]] = depth
        source = reached // n
        np.subtract.at(pending, source[goal], 1)
        frontier = reached[pending[source] > 0]
        if len(seen) > _SEEN_BUDGET * n:
            seen = seen[pending[seen // n] > 0]
            if len(seen) > _SEEN_BUDGET * n:
                rest = pending[keys // n] > 0
                hops[rest] = _word_search(indptr, nbr, keys[rest], cutoff)
                break
    return hops


def _word_search(indptr, nbr, keys, cutoff):
    """Hops (-1 past ``cutoff``) for the sorted keys source * n + goal: one
    BFS per block of 64 sources, each vertex holding a uint64 word of the
    block's sources that reached it.  Levels expand only the arcs of
    frontier vertices and test only the goals at newly reached ones."""
    n = np.int64(len(indptr) - 1)
    hops = np.full(len(keys), -1, dtype=np.int64)
    source, goal = np.divmod(keys, n)
    heads = np.flatnonzero(np.diff(source, prepend=-1))
    one = np.left_shift(np.uint64(1), np.arange(64, dtype=np.uint64))
    reach = np.zeros(n, dtype=np.uint64)
    slot = np.empty(n, dtype=np.int64)
    for first in range(0, len(heads), 64):
        block = source[heads[first : first + 64]]
        pairs = slice(heads[first], heads[first + 64] if first + 64 < len(heads) else len(keys))
        # Per source bit its pending goals, per vertex the bits wanting it.
        bit = np.searchsorted(block, source[pairs])
        pending = np.bincount(bit, minlength=64)
        wanted = np.zeros(n, dtype=np.uint64)
        np.bitwise_or.at(wanted, goal[pairs], one[bit])
        frontier, bits = block, one[: len(block)]
        seen = np.zeros(n, dtype=np.uint64)
        seen[frontier] = bits
        hits, depths = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
        for depth in range(1, cutoff + 1):
            if not len(frontier):
                break
            count = indptr[frontier + 1] - indptr[frontier]
            reached = nbr[concat_ranges(indptr[frontier], count)]
            np.bitwise_or.at(reach, reached, np.repeat(bits, count))
            # Distinct reached vertices: whichever write to slot[v] lands,
            # exactly one occurrence of v reads its own index back.
            k = np.arange(len(reached))
            slot[reached] = k
            frontier = reached[slot[reached] == k]
            bits = reach[frontier] & ~seen[frontier]
            reach[frontier] = 0
            new = bits != 0
            frontier, bits = frontier[new], bits[new]
            seen[frontier] |= bits
            # A source bit reaches each vertex once, so each wanted bit that
            # arrives finds one pair.
            found = bits & wanted[frontier]
            at = np.flatnonzero(found)
            row, b = np.nonzero((found[at, None] & one[: len(block)]) != 0)
            hits.append(block[b] * n + frontier[at[row]])
            depths.append(np.full(len(b), depth))
            pending -= np.bincount(b, minlength=64)
            # Sources with every goal found leave the frontier words.
            bits &= np.bitwise_or.reduce(one[pending > 0], initial=np.uint64(0))
            new = bits != 0
            frontier, bits = frontier[new], bits[new]
        hit = np.concatenate(hits)
        order = np.argsort(hit)
        hops[np.searchsorted(keys, hit[order])] = np.concatenate(depths)[order]
    return hops


def _worst_pairs(worst, v, w):
    """Indices of the ten pairs first by (-worst, v, w), as
    ``np.lexsort((w, v, -worst))[:10]``: only the pairs at least as bad as
    the tenth worst, found by one partition, are sorted."""
    cand = np.arange(len(worst))
    if len(worst) > 10:
        cand = np.flatnonzero(worst >= np.partition(worst, -10)[-10])
    return cand[np.lexsort((w[cand], v[cand], -worst[cand]))[:10]]


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
    tail = np.repeat(np.arange(n), np.diff(indptr))
    # The out-graph and its reverse share their weak components.
    label = components(n, tail, nbr)
    out_hops = _pair_hops(indptr, nbr, hub, other, cutoff, label)
    in_hops = _pair_hops(*arcs_csr(n, nbr, tail)[:2], hub, other, cutoff, label)
    # The plain graph is undirected: one direction covers both.
    g = a.base
    plain = _pair_hops(*g.adjacency()[:2], hub, other, cutoff, components(n, g.edge_u, g.edge_v))
    cut_aug, cut_plain = (out_hops < 0) | (in_hops < 0), plain < 0
    worst = np.maximum(out_hops, in_hops)
    worst[cut_aug] = cutoff
    plain[cut_plain] = cutoff
    top = _worst_pairs(worst, v, w)
    return NeighborlyReport(
        int(worst.max(initial=0)),
        int(plain.max(initial=0)),
        bool(cut_aug.any()),
        bool(cut_plain.any()),
        tuple(((int(v[k]), int(w[k])), int(worst[k])) for k in top),
    )


def clustering_check(s: DiskSystem) -> ClusteringReport:
    """Connected components among each disk's not-larger intersecting
    neighbors, ordered by (radius, position)."""
    owner, _, comp = s.smaller_components()
    counts = np.bincount(owner[comp == np.arange(len(comp))], minlength=len(s))
    return ClusteringReport(counts, int(counts.max()) if len(counts) else 0)
