import numpy as np
import pytest

import roadgeom as rg
from roadgeom import crossings as cr
from roadgeom._arrays import components, csr, grid_join, index_of, sorted_unique
from roadgeom.augment import DIRECTIONS, grid_augment
from roadgeom.disks import build_disk_system, exceptional_decomposition
from roadgeom.errors import ConfigError
from roadgeom.separators import build_decomposition, find_separator

import reference


def cursor_csr(n, u, v):
    """One pass over the edges, appending each edge to both endpoints."""
    deg = np.bincount(np.concatenate([u, v]).astype(np.int64), minlength=n)
    indptr = np.concatenate([[0], np.cumsum(deg)])
    nbr = np.empty(2 * len(u), dtype=np.int64)
    eidx = np.empty(2 * len(u), dtype=np.int64)
    cursor = indptr[:-1].copy()
    for k, (a, b) in enumerate(zip(u, v)):
        for x, y in ((a, b), (b, a)):
            nbr[cursor[x]] = y
            eidx[cursor[x]] = k
            cursor[x] += 1
    return indptr, nbr, eidx


def assert_csr_matches(n, u, v):
    u, v = np.asarray(u, dtype=np.int64), np.asarray(v, dtype=np.int64)
    indptr, nbr, slot = csr(n, u, v)
    want = cursor_csr(n, u, v)
    assert np.array_equal(indptr, want[0])
    assert np.array_equal(nbr, want[1])
    assert np.array_equal(slot >> 1, want[2])
    # slot parity says which endpoint sees the edge.
    assert np.array_equal(np.where(slot & 1, v[slot >> 1], u[slot >> 1]), np.repeat(np.arange(n), np.diff(indptr)))


class TestCsr:
    def test_vertex_seen_as_v_then_u(self):
        # Vertex 0 is v of edge 0 and u of edge 1; vertex 2 is u, v, v.
        assert_csr_matches(5, [2, 0, 1, 3, 1], [0, 1, 3, 2, 2])

    def test_isolated_vertices_and_no_edges(self):
        assert_csr_matches(4, [3], [1])
        assert_csr_matches(3, [], [])

    def test_random_multigraph(self):
        rng = np.random.default_rng(5)
        u = rng.integers(0, 40, size=300)
        v = (u + rng.integers(1, 40, size=300)) % 40
        assert_csr_matches(45, u, v)

    def test_graph_and_pair_adjacency(self, gotham_small, rgg_medium, hub_small):
        for g in (gotham_small, rgg_medium, hub_small):
            indptr, nbr, eidx, wt = g.adjacency()
            want = cursor_csr(g.n, g.edge_u, g.edge_v)
            assert all(np.array_equal(a, b) for a, b in zip((indptr, nbr, eidx), want))
            assert np.array_equal(wt, g.edge_weight[want[2]])
            s = build_disk_system(g)
            want = cursor_csr(len(s), s.pairs[:, 0], s.pairs[:, 1])
            assert all(np.array_equal(a, b) for a, b in zip(s.pair_adjacency(), want))


def brute_join(q, s, cell):
    cq, cs = np.floor(q / cell), np.floor(s / cell)
    near = (np.abs(cq[:, None, :] - cs[None, :, :]) <= 1).all(axis=2)
    return set(zip(*map(np.ndarray.tolist, np.nonzero(near))))


class TestGridJoin:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(2)
        q = rng.uniform(-3, 5, size=(300, 2))
        s = np.vstack([rng.uniform(-2, 4, size=(200, 2)), q[:20], [[-2.0, -2.0], [-2.0, -2.0]]])
        for cell in (0.25, 1.0, 3.0, 50.0):
            qi, sj = grid_join(q, s, cell)
            assert len(qi) == len(set(zip(qi.tolist(), sj.tolist())))
            assert set(zip(qi.tolist(), sj.tolist())) == brute_join(q, s, cell)
            assert np.all(np.diff(qi) >= 0)

    def test_sparse_cells_far_apart(self):
        # 1e12 cells per axis: rank keys stay small where packed cell
        # coordinates would not fit in int64.
        s = np.array([[0.0, 0.0], [1e12, 1e12], [1e12 + 1.5, 1e12], [0.5, 1e12]])
        q = np.array([[1e12 + 0.9, 1e12 + 0.9], [0.2, -0.7], [3.0, 3.0]])
        qi, sj = grid_join(q, s, 1.0)
        assert set(zip(qi.tolist(), sj.tolist())) == brute_join(q, s, 1.0)

    def test_empty_sides(self):
        for q, s in ((np.empty((0, 2)), np.ones((3, 2))), (np.ones((3, 2)), np.empty((0, 2)))):
            qi, sj = grid_join(q, s, 1.0)
            assert len(qi) == len(sj) == 0

    def test_unrepresentable_cells_are_config_error(self):
        # Disks of radius 1e-300 about 1e300 apart: the band cell is about
        # 4e-300, so cell coordinates reach 1e600 (inf).
        g = rg.GeometricGraph.build(
            [(0.0, 0.0), (2e-300, 0.0), (1e300, 0.0), (1e300, 2e-300)],
            [(0, 1, 1.0, 4), (2, 3, 1.0, 4)],
        )
        with pytest.raises(ConfigError, match="grid join"):
            build_disk_system(g)
        with pytest.raises(ConfigError, match="grid join"):
            grid_join([[0.0, 0.0]], [[2.0**60, 0.0]], 1.0)


def test_sorted_unique_equals_np_unique_on_signed_zeros():
    # grid_join takes the distinct cell columns and rows of float cells,
    # where floor(-0.0) keeps the sign; sorted_unique must pick the same zero.
    rng = np.random.default_rng(3)
    for size in (1, 2, 7, 40, 300):
        keys = rng.choice([-0.0, 0.0, 1.0, -1.0, 2.5], size=size)
        got, want = sorted_unique(keys), np.unique(keys)
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))
    for keys in ([-0.0, 0.0], [0.0, -0.0], [0.0, -0.0, 1.0, -0.0]):
        got, want = sorted_unique(np.array(keys)), np.unique(np.array(keys))
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize(
    "keys",
    [[1, 2, 3, 4, 5], [-3, -2, -1, 0], [7], [1, 2, 4, 5], [-5, 0, 9], [], [2**62, 2**62 + 1]],
    ids=["dense", "dense-negative", "single", "gapped", "sparse", "empty", "dense-huge"],
)
def test_index_of_equals_searchsorted(keys):
    """Contiguous keys take the offset path; either path gives searchsorted's
    leftmost insertion point, for found and missing queries alike."""
    keys = np.array(keys, dtype=np.int64)
    lo, hi = (int(keys[0]), int(keys[-1])) if len(keys) else (0, 0)
    query = np.array(
        [lo - 10, lo - 1, lo, (lo + hi) // 2, hi, hi + 1, hi + 10, 3, -2**63, 2**63 - 1], dtype=np.int64
    )
    pos, found = index_of(keys, query)
    want = np.searchsorted(keys, query)
    assert np.array_equal(pos, want)
    assert found.tolist() == [q in keys.tolist() for q in query.tolist()]


def assert_components_match(n, u, v):
    uf = reference.UnionFind(range(n))
    for a, b in zip(u, v):
        uf.union(int(a), int(b))
    want = [min(x for x in range(n) if uf.find(x) == uf.find(y)) for y in range(n)]
    assert components(n, u, v).tolist() == want


class TestComponents:
    def test_no_edges(self):
        assert_components_match(4, [], [])
        assert_components_match(0, [], [])

    def test_isolated_vertices_and_self_loops(self):
        assert_components_match(7, [5, 2, 6, 3], [2, 5, 6, 5])

    def test_path_in_falling_order(self):
        # Hooking builds one long label chain for pointer jumping to flatten.
        n = 200
        assert_components_match(n, np.arange(n - 1, 0, -1), np.arange(n - 2, -1, -1))

    def test_random_multigraph(self):
        rng = np.random.default_rng(11)
        for edges in (10, 60, 300):
            u = rng.integers(0, 120, size=edges)
            v = rng.integers(0, 120, size=edges)
            assert_components_match(130, u, v)

    def test_graph_fixtures(self, rgg_medium, hub_small):
        for g in (rgg_medium, hub_small, rg.gen_random_geometric(200, 0.06, seed=1)):
            assert_components_match(g.n, g.edge_u, g.edge_v)


def assert_frozen_int64(a):
    assert isinstance(a, np.ndarray) and a.dtype == np.int64
    with pytest.raises(ValueError, match="read-only"):
        a[...] = 0


@pytest.mark.parametrize(
    "make",
    [lambda: rg.gen_gotham(24, 2, seed=0), lambda: rg.gen_hub_spoke(16, 9, seed=2)],
    ids=["gotham", "hubspoke"],
)
def test_id_sets_are_read_only_int64_arrays(make):
    """Separator parts, leaf members, exceptional removals and shortcuts
    are read-only int64 arrays."""
    g = make()
    system = build_disk_system(g)
    seps = [find_separator(system, seed=1)]
    tree = build_decomposition(system, seed=1, exceptional_k=2)
    assert len(tree.root.separator.exceptional) > 0 and len(tree.internal_nodes()) > 1
    for nd in tree.nodes:
        if nd.is_leaf:
            assert_frozen_int64(nd.leaf_vertices)
        else:
            seps.append(nd.separator)
    for sep in seps:
        for part in (sep.cut, sep.inside, sep.outside, sep.exceptional):
            assert_frozen_int64(part)
    for k in (1, 1000):
        assert_frozen_int64(exceptional_decomposition(system, k).removed)
    shortcuts = grid_augment(cr.planarize(g, cr.find_crossings(g))).shortcuts
    assert_frozen_int64(shortcuts)
    assert shortcuts.shape == (len(shortcuts), 3) and len(shortcuts) > 0
    assert set(shortcuts[:, 2].tolist()) <= set(range(len(DIRECTIONS)))


def test_every_export_resolves():
    for name in rg.__all__:
        assert hasattr(rg, name), name
