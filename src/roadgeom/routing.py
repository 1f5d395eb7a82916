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
import math
from dataclasses import dataclass

import numpy as np

from ._arrays import csr
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
    """Exact single-source shortest paths: the one-site direct Voronoi run.
    One label makes it a plain Dijkstra, pops tie-broken by vertex id: only
    a strictly shorter distance relaxes a vertex."""
    if not 0 <= source < g.n:
        raise ValidationError(f"unknown source vertex {source}")
    d = voronoi_direct(g, [source])
    return ShortestPathResult(source, d.dist, d.parent)


def _lex_dijkstra(n, indptr, nbr, wt, rule, seeds):
    """Dijkstra over lexicographic (distance, label) keys.

    ``rule[k]`` controls the label carried across CSR slot k: -2 keeps the
    current label, any other value overwrites it.  ``seeds`` are
    (dist, label, vertex) start states.
    """
    # Python lists and floats: the same IEEE additions and comparisons as
    # numpy scalars, without their per-element boxing.
    indptr, nbr, wt, rule = indptr.tolist(), nbr.tolist(), wt.tolist(), rule.tolist()
    dist = [math.inf] * n
    label = [_NO_SITE] * n
    parent = [-1] * n
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
            v = nbr[k]
            nd = d + wt[k]
            nl = l if rule[k] == -2 else rule[k]
            if nd < dist[v] or (nd == dist[v] and nl < label[v]):
                dist[v] = nd
                label[v] = nl
                parent[v] = u
                heapq.heappush(heap, (nd, nl, v))
    return np.array(dist), np.array(label, dtype=np.int64), np.array(parent, dtype=np.int64)


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

    # Zero-weight edges (a, b, rule seen from a, rule seen from b): tree
    # edges to the parent node, then one anchor per site.
    extra = [
        (fresh[node_id], fresh[tree.nodes[node_id].parent], _NO_SITE, _NO_SITE)
        for node_id in used
        if tree.nodes[node_id].parent in fresh
    ]
    extra += [(fresh[int(tree.label[s])], s, s, _NO_SITE) for s in sites]
    eu, ev, rule_ab, rule_ba = np.array(extra, dtype=np.int64).T

    # Base edges first, then the extra edges: every vertex keeps its base
    # CSR neighbours in front.
    indptr, nbr, slot = csr(
        g.n + len(used), np.concatenate([g.edge_u, eu]), np.concatenate([g.edge_v, ev])
    )
    wt = np.concatenate([g.edge_weight, np.zeros(len(eu))])[slot >> 1]
    rule = np.concatenate([np.full(2 * g.m, -2), np.column_stack([rule_ab, rule_ba]).ravel()])[slot]

    root_vertex = fresh[0]  # the tree root is node 0 and is always in B'
    dist, label, parent = _lex_dijkstra(
        g.n + len(used), indptr, nbr, wt, rule, [(0.0, _NO_SITE, root_vertex)]
    )
    return _finalize(g, sites, dist, label, parent)
