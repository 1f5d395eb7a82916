import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import roadgeom as rg
from roadgeom.disks import build_disk_system
from roadgeom.errors import ValidationError
from roadgeom.routing import sssp, voronoi_direct, voronoi_via_tree
from roadgeom.separators import build_decomposition

import reference


def random_weighted_graph(n, extra_edges, seed):
    """Connected-ish random graph with arbitrary nonnegative weights."""
    rng = np.random.default_rng(seed)
    pts = rng.random((n, 2))
    edges = set()
    for v in range(1, n):
        u = int(rng.integers(0, v))
        edges.add((u, v))
    while len(edges) < n - 1 + extra_edges:
        u, v = rng.integers(0, n, size=2)
        if u != v:
            edges.add((min(int(u), int(v)), max(int(u), int(v))))
    elist = [
        (u, v, float(rng.choice([0.0, rng.uniform(0, 10), rng.uniform(0, 10)])), 4)
        for u, v in sorted(edges)
    ]
    return rg.GeometricGraph.build(pts, elist)


class TestSssp:
    def test_single_vertex(self):
        g = rg.GeometricGraph.build([(0, 0)], [])
        r = sssp(g, 0)
        assert r.dist.tolist() == [0.0]
        assert r.parent.tolist() == [-1]

    def test_path(self):
        g = rg.GeometricGraph.build(
            [(0, 0), (1, 0), (2, 0)], [(0, 1, 3.0, 4), (1, 2, 4.0, 4)]
        )
        r = sssp(g, 0)
        assert r.dist.tolist() == [0.0, 3.0, 7.0]
        assert r.parent.tolist() == [-1, 0, 1]

    def test_unknown_source(self):
        g = rg.GeometricGraph.build([(0, 0)], [])
        with pytest.raises(ValidationError):
            sssp(g, 5)

    def test_matches_bellman_ford(self):
        for seed in range(10):
            g = random_weighted_graph(150, 120, seed)
            source = seed % g.n
            r = sssp(g, source)
            assert np.array_equal(r.dist, reference.bellman_ford(g, source))

    def test_matches_heap_oracle_exactly(self, gotham_small):
        # A third of the random graphs' weights are 0.0, so many relaxations
        # tie the current distance and must leave the parent alone.
        graphs = [random_weighted_graph(150, 120, seed) for seed in range(10)]
        graphs.append(gotham_small)
        for i, g in enumerate(graphs):
            for source in {0, (7 * i) % g.n, g.n - 1}:
                r = sssp(g, source)
                dist, parent = reference.heap_sssp(g, source)
                assert np.array_equal(r.dist, dist) and np.array_equal(r.parent, parent)
                assert r.parent.dtype == parent.dtype

    def test_relaxation_and_telescoping(self):
        g = random_weighted_graph(60, 80, 3)
        r = sssp(g, 0)
        edges = list(zip(g.edge_u.tolist(), g.edge_v.tolist(), g.edge_weight.tolist()))
        for u, x, w in edges:
            assert r.dist[x] <= r.dist[u] + w
            assert r.dist[u] <= r.dist[x] + w
        for v in range(g.n):
            if np.isinf(r.dist[v]) or v == 0:
                continue
            total, cur = 0.0, v
            while cur != 0:
                p = int(r.parent[cur])
                w = next(weight for a, b, weight in edges if {a, b} == {p, cur})
                total = total + w
                cur = p
            # Telescoped parent-chain weight reproduces the distance.
            assert total == pytest.approx(r.dist[v], rel=1e-12)

    def test_unreachable_inf(self):
        g = rg.GeometricGraph.build([(0, 0), (1, 0), (5, 5)], [(0, 1, 1.0, 4)])
        r = sssp(g, 0)
        assert np.isinf(r.dist[2]) and r.parent[2] == -1


def tree_for(g, seed=0):
    return build_decomposition(build_disk_system(g), leaf_threshold=8, seed=seed)


class TestVoronoi:
    def test_all_sites(self, gotham_small):
        sites = list(range(gotham_small.n))
        lab = voronoi_direct(gotham_small, sites)
        assert np.array_equal(lab.label, np.arange(gotham_small.n))
        assert np.all(lab.dist == 0.0)

    def test_single_site_equals_sssp(self, gotham_small):
        lab = voronoi_direct(gotham_small, [17])
        r = sssp(gotham_small, 17)
        assert np.array_equal(lab.dist, r.dist)
        reachable = ~np.isinf(r.dist)
        assert np.all(lab.label[reachable] == 17)

    def test_via_tree_single_site(self, gotham_small):
        tree = tree_for(gotham_small)
        lab = voronoi_via_tree(gotham_small, tree, [17])
        assert np.array_equal(lab.dist, sssp(gotham_small, 17).dist)

    def test_via_tree_all_sites(self, gotham_small):
        tree = tree_for(gotham_small)
        lab = voronoi_via_tree(gotham_small, tree, list(range(gotham_small.n)))
        assert np.array_equal(lab.label, np.arange(gotham_small.n))
        assert np.all(lab.dist == 0.0)

    def test_midpoint_tie_goes_to_lower_site(self):
        g = rg.GeometricGraph.build(
            [(0, 0), (1, 0), (2, 0)], [(0, 1, 1.0, 4), (1, 2, 1.0, 4)]
        )
        for sites in ([0, 2], [2, 0]):
            lab = voronoi_direct(g, sites)
            assert lab.label.tolist() == [0, 0, 2]
            tree = tree_for(g)
            lab2 = voronoi_via_tree(g, tree, sites)
            assert lab2.label.tolist() == [0, 0, 2]

    def test_matches_direct_on_gotham(self, gotham_small):
        rng = np.random.default_rng(11)
        tree = tree_for(gotham_small, seed=5)
        sites = sorted(int(s) for s in rng.choice(gotham_small.n, 5, replace=False))
        via = voronoi_via_tree(gotham_small, tree, sites)
        direct = voronoi_direct(gotham_small, sites)
        assert np.array_equal(via.dist, direct.dist)
        assert np.array_equal(via.label, direct.label)

    def test_matches_multi_source_oracle(self):
        g = random_weighted_graph(80, 60, 21)
        sites = [3, 40, 77]
        direct = voronoi_direct(g, sites)
        want_dist, mat = reference.multi_source_dist(g, sites)
        assert np.array_equal(direct.dist, want_dist)
        for v in range(g.n):
            if v in sites:
                assert direct.label[v] == v
                continue
            argmin = [s for i, s in enumerate(sites) if mat[i, v] == want_dist[v]]
            assert direct.label[v] == min(argmin)

    def test_zero_weight_edges(self):
        g = rg.GeometricGraph.build(
            [(0, 0), (1, 0), (2, 0), (3, 0)],
            [(0, 1, 0.0, 4), (1, 2, 0.0, 4), (2, 3, 5.0, 4)],
        )
        tree = tree_for(g)
        for sites in ([1, 3], [0, 2]):
            via = voronoi_via_tree(g, tree, sites)
            direct = voronoi_direct(g, sites)
            assert np.array_equal(via.dist, direct.dist)
            assert np.array_equal(via.label, direct.label)

    def test_errors(self, gotham_small):
        tree = tree_for(gotham_small)
        with pytest.raises(ValidationError):
            voronoi_direct(gotham_small, [])
        with pytest.raises(ValidationError):
            voronoi_direct(gotham_small, [gotham_small.n + 3])
        with pytest.raises(ValidationError):
            voronoi_via_tree(gotham_small, tree, [gotham_small.n + 3])

    def test_disconnected_component(self):
        g = rg.GeometricGraph.build(
            [(0, 0), (1, 0), (9, 9), (10, 9)],
            [(0, 1, 1.0, 4), (2, 3, 1.0, 4)],
        )
        tree = tree_for(g)
        via = voronoi_via_tree(g, tree, [0])
        direct = voronoi_direct(g, [0])
        assert np.array_equal(via.dist, direct.dist)
        assert np.isinf(via.dist[2]) and via.label[2] == -1


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(5, 40), st.integers(1, 5))
def test_via_tree_equals_direct_property(seed, n, k):
    g = random_weighted_graph(n, n // 2, seed)
    tree = tree_for(g, seed=seed)
    rng = np.random.default_rng(seed + 1)
    sites = sorted(int(s) for s in rng.choice(n, min(k, n), replace=False))
    via = voronoi_via_tree(g, tree, sites)
    direct = voronoi_direct(g, sites)
    assert np.array_equal(via.dist, direct.dist)
    assert np.array_equal(via.label, direct.label)
