"""Comparison-model shortest paths and graph Voronoi labelings.

The Voronoi construction follows the decomposition-tree reduction: the union
of root-to-site paths in the separator tree is attached to the graph as
fresh vertices with zero-weight edges (one anchor edge dropping from each
site's tree node to the site itself), and a single-source run from the tree
root then yields nearest-site distances.

Both Voronoi routes resolve distance ties to the lowest site id by running
Dijkstra over lexicographic (distance, origin-site) keys, so their labelings
agree exactly and deterministically.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .graphs import GeometricGraph
from .separators import SeparatorTree

_NO_SITE = np.iinfo(np.int64).max  # carried by tree edges before any site


@dataclass(frozen=True)
class ShortestPathResult:
    source: int
    dist: np.ndarray
    parent: np.ndarray


@dataclass(frozen=True)
class VoronoiLabeling:
    sites: tuple
    label: np.ndarray
    dist: np.ndarray
    parent: np.ndarray


def sssp(g: GeometricGraph, source: int) -> ShortestPathResult:
    """Exact single-source shortest paths; pops tie-broken by vertex id."""
    if not 0 <= source < g.n:
        raise ValidationError(f"unknown source vertex {source}")
    indptr, nbr, _, wt = g.adjacency()
    n = g.n
    dist = np.full(n, np.inf)
    parent = np.full(n, -1, dtype=np.int64)
    dist[source] = 0.0
    heap = [(0.0, source)]
    done = np.zeros(n, dtype=bool)
    while heap:
        d, u = heapq.heappop(heap)
        if done[u]:
            continue
        done[u] = True
        for k in range(indptr[u], indptr[u + 1]):
            v = int(nbr[k])
            nd = d + wt[k]
            if nd < dist[v]:
                dist[v] = nd
                parent[v] = u
                heapq.heappush(heap, (nd, v))
    return ShortestPathResult(source, dist, parent)


def _lex_dijkstra(n, indptr, nbr, wt, rule, seeds):
    """Dijkstra over lexicographic (distance, label) keys.

    ``rule[k]`` controls the label carried across CSR slot k: -2 keeps the
    current label, any other value overwrites it.  ``seeds`` are
    (dist, label, vertex) start states.
    """
    dist = np.full(n, np.inf)
    label = np.full(n, _NO_SITE, dtype=np.int64)
    parent = np.full(n, -1, dtype=np.int64)
    heap = []
    for d, l, v in seeds:
        if d < dist[v] or (d == dist[v] and l < label[v]):
            dist[v] = d
            label[v] = l
            heap.append((d, l, v))
    heapq.heapify(heap)
    while heap:
        d, l, u = heapq.heappop(heap)
        if d > dist[u] or (d == dist[u] and l > label[u]):
            continue
        for k in range(indptr[u], indptr[u + 1]):
            v = int(nbr[k])
            nd = d + wt[k]
            nl = l if rule[k] == -2 else int(rule[k])
            if nd < dist[v] or (nd == dist[v] and nl < label[v]):
                dist[v] = nd
                label[v] = nl
                parent[v] = u
                heapq.heappush(heap, (nd, nl, v))
    return dist, label, parent


def _check_sites(g, sites):
    if len(sites) == 0:
        raise ValidationError("need at least one site")
    out = tuple(sorted({int(s) for s in sites}))
    for s in out:
        if not 0 <= s < g.n:
            raise ValidationError(f"site {s} not in graph")
    return out


def _finalize(g, sites, dist, label, parent):
    dist = dist[: g.n]
    label = label[: g.n].copy()
    parent = parent[: g.n].copy()
    label[np.isinf(dist)] = -1
    label[label == _NO_SITE] = -1
    for s in sites:
        label[s] = s
        parent[s] = -1
    parent[parent >= g.n] = -1  # anchors collapse: a site roots its region
    return VoronoiLabeling(sites, label, dist, parent)


def voronoi_direct(g: GeometricGraph, sites) -> VoronoiLabeling:
    """Multi-source run seeded at the sites; ties go to the lower site id."""
    sites = _check_sites(g, sites)
    indptr, nbr, _, wt = g.adjacency()
    rule = np.full(len(nbr), -2, dtype=np.int64)
    dist, label, parent = _lex_dijkstra(
        g.n, indptr, nbr, wt, rule, [(0.0, s, s) for s in sites]
    )
    return _finalize(g, sites, dist, label, parent)


def voronoi_via_tree(g: GeometricGraph, tree: SeparatorTree, sites) -> VoronoiLabeling:
    """Nearest-site labeling through the zero-weight decomposition subtree.

    Builds the union of root-to-site-label paths, attaches it as fresh
    vertices with zero-weight edges plus one anchor per site, and runs a
    single source from the subtree root.  Distances equal the multi-source
    result exactly; labels follow the same lowest-site-id tie rule.
    """
    sites = _check_sites(g, sites)
    if len(tree.label) != g.n or np.any(tree.label < 0):
        raise ValidationError("tree labels do not cover the graph")

    seen = set()
    for s in sites:
        for node_id in tree.path_to_root(int(tree.label[s])):
            if node_id in seen:
                break
            seen.add(node_id)
    used = sorted(seen)
    fresh = {node_id: g.n + i for i, node_id in enumerate(used)}

    eu, ev, ew, er_fwd, er_rev = [], [], [], [], []

    def add(a, b, w, rule_ab, rule_ba):
        eu.append(a)
        ev.append(b)
        ew.append(w)
        er_fwd.append(rule_ab)
        er_rev.append(rule_ba)

    for node_id in used:
        parent = tree.nodes[node_id].parent
        if parent is not None and parent in fresh:
            add(fresh[node_id], fresh[parent], 0.0, _NO_SITE, _NO_SITE)
    for s in sites:
        add(fresh[int(tree.label[s])], s, 0.0, s, _NO_SITE)

    n_aug = g.n + len(used)
    base_indptr, base_nbr, _, base_wt = g.adjacency()
    deg = np.zeros(n_aug, dtype=np.int64)
    deg[: g.n] = np.diff(base_indptr)
    for a, b in zip(eu, ev):
        deg[a] += 1
        deg[b] += 1
    indptr = np.zeros(n_aug + 1, dtype=np.int64)
    np.cumsum(deg, out=indptr[1:])
    nbr = np.empty(indptr[-1], dtype=np.int64)
    wt = np.empty(indptr[-1], dtype=np.float64)
    rule = np.empty(indptr[-1], dtype=np.int64)
    cursor = indptr[:-1].copy()
    for v in range(g.n):
        s, t = base_indptr[v], base_indptr[v + 1]
        k = t - s
        nbr[cursor[v] : cursor[v] + k] = base_nbr[s:t]
        wt[cursor[v] : cursor[v] + k] = base_wt[s:t]
        rule[cursor[v] : cursor[v] + k] = -2
        cursor[v] += k
    for a, b, w, rf, rb in zip(eu, ev, ew, er_fwd, er_rev):
        nbr[cursor[a]] = b
        wt[cursor[a]] = w
        rule[cursor[a]] = rf
        cursor[a] += 1
        nbr[cursor[b]] = a
        wt[cursor[b]] = w
        rule[cursor[b]] = rb
        cursor[b] += 1

    root_vertex = fresh[0]  # the tree root is node 0 and is always in B'
    dist, label, parent = _lex_dijkstra(
        n_aug, indptr, nbr, wt, rule, [(0.0, _NO_SITE, root_vertex)]
    )
    return _finalize(g, sites, dist, label, parent)
