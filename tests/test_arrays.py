from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import roadgeom as rg
from roadgeom import _arrays
from roadgeom import crossings as cr
from roadgeom._arrays import components, concat_ranges, csr, grid_join, index_of, range_blocks, sorted_unique
from roadgeom.augment import DIRECTIONS, grid_augment
from roadgeom.disks import build_disk_system, covering_counts, exceptional_decomposition
from roadgeom.errors import ConfigError, DegeneracyError
from roadgeom.separators import build_decomposition, find_separator

import reference
from test_augment import lattice_graphs


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


def joined(q, s, cell):
    """grid_join's blocks as one (qi, sj) pair of arrays."""
    return tuple(np.concatenate(c) for c in zip(*grid_join(q, s, cell)))


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
            qi, sj = joined(q, s, cell)
            assert len(qi) == len(set(zip(qi.tolist(), sj.tolist())))
            assert set(zip(qi.tolist(), sj.tolist())) == brute_join(q, s, cell)
            assert np.all(np.diff(qi) >= 0)

    def test_sparse_cells_far_apart(self):
        # 1e12 cells per axis: rank keys stay small where packed cell
        # coordinates would not fit in int64.
        s = np.array([[0.0, 0.0], [1e12, 1e12], [1e12 + 1.5, 1e12], [0.5, 1e12]])
        q = np.array([[1e12 + 0.9, 1e12 + 0.9], [0.2, -0.7], [3.0, 3.0]])
        qi, sj = joined(q, s, 1.0)
        assert set(zip(qi.tolist(), sj.tolist())) == brute_join(q, s, 1.0)

    def test_empty_sides(self):
        for q, s in ((np.empty((0, 2)), np.ones((3, 2))), (np.ones((3, 2)), np.empty((0, 2)))):
            qi, sj = joined(q, s, 1.0)
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


def block_outputs(g):
    """Every output the blocked joins feed, on a fresh copy of ``g``, as
    (dtype, shape, bytes) rows: the crossing table, the planarized graph
    and its shortcuts (or planarize's error), the disk pairs and the
    covering counts of the vertices, edge midpoints and contact points."""
    g = rg.GeometricGraph(g.xy, g.edge_u, g.edge_v, g.edge_weight, g.edge_level)
    t = cr.find_crossings(g)
    out = list(vars(t).values())
    try:
        p = cr.planarize(g, t)
        out += [p.graph.xy, p.graph.edge_u, p.graph.edge_v, p.graph.edge_weight, p.split_edges]
        out.append(grid_augment(p).shortcuts)
    except DegeneracyError as e:
        out.append(str(e))
    s = build_disk_system(g)
    points = np.concatenate([g.xy, 0.5 * (g.xy[g.edge_u] + g.xy[g.edge_v]), np.column_stack([t.x, t.y])])
    out += [s.pairs, covering_counts(s, points)]
    return [(a.dtype.str, a.shape, a.tobytes()) if isinstance(a, np.ndarray) else a for a in out]


class TestPairBlock:
    """Every join expands its candidates ``_arrays._PAIR_BLOCK`` at a time,
    in candidate order, so no output depends on the block size."""

    @pytest.mark.parametrize("block", [1, 2, 7, 1 << 16])
    def test_range_blocks_cover_every_item_once(self, block):
        rng = np.random.default_rng(5)
        counts = rng.integers(0, 9, size=60)
        counts[[0, 7, 8, 59]] = 0
        starts = rng.integers(-50, 50, size=60)
        with mock.patch.object(_arrays, "_PAIR_BLOCK", block):
            blocks = list(range_blocks(starts, counts))
        sizes = [len(r) for r, _ in blocks]
        total = int(counts.sum())
        assert sizes == [block] * (total // block) + ([total % block] if total % block else [])
        row, item = (np.concatenate(c) for c in zip(*blocks))
        assert np.array_equal(row, np.repeat(np.arange(60), counts))
        assert np.array_equal(item, concat_ranges(starts, counts))
        for none in (starts[:0], counts[:0]), (starts, 0 * counts):
            (row, item), = range_blocks(*none)
            assert row.dtype == item.dtype == np.int64 and row.shape == item.shape == (0,)

    @pytest.mark.parametrize("block", [1, 7])
    def test_grid_join_blocks_concatenate_to_one(self, block):
        rng = np.random.default_rng(2)
        q, s = rng.uniform(-3, 5, size=(80, 2)), rng.uniform(-2, 4, size=(50, 2))
        want = joined(q, s, 1.0)
        with mock.patch.object(_arrays, "_PAIR_BLOCK", block):
            blocks = list(grid_join(q, s, 1.0))
        assert all(0 < len(qi) <= block for qi, _ in blocks)
        got = tuple(np.concatenate(c) for c in zip(*blocks))
        assert all(np.array_equal(a, b) for a, b in zip(got, want))

    @pytest.mark.parametrize("block", [1, 7])
    def test_outputs_do_not_depend_on_the_block(self, monkeypatch, gotham_small, rgg_small, hub_small, block):
        graphs = (gotham_small, rgg_small, hub_small)
        want = [block_outputs(g) for g in graphs]
        monkeypatch.setattr(_arrays, "_PAIR_BLOCK", block)
        assert [block_outputs(g) for g in graphs] == want

    @settings(max_examples=60, deadline=None)
    @given(lattice_graphs(), st.sampled_from([1, 7]))
    def test_lattice_outputs_do_not_depend_on_the_block(self, g, block):
        want = block_outputs(g)
        with mock.patch.object(_arrays, "_PAIR_BLOCK", block):
            assert block_outputs(g) == want

    @pytest.mark.parametrize("block", [1, 1 << 16])
    def test_empty_and_candidate_free_graphs(self, block):
        empty = rg.GeometricGraph.build([], [])
        # Two unit edges 100 cells apart share no cell: no candidate pair.
        apart = rg.GeometricGraph.build([(0, 0), (1, 0), (100, 100), (101, 100)], [(0, 1, 1.0, 4), (2, 3, 1.0, 4)])
        with mock.patch.object(_arrays, "_PAIR_BLOCK", block):
            for g, pairs in ((empty, []), (apart, [[0, 1], [2, 3]])):
                a, b = cr._cell_candidates(g)
                assert a.dtype == b.dtype == np.int64 and a.shape == b.shape == (0,)
                t = cr.find_crossings(g)
                assert [c.dtype for c in vars(t).values()] == [np.int64] * 2 + [np.float64] * 2 + [np.int64] * 2 + [np.int8]
                assert all(c.shape == (0,) for c in vars(t).values())
                p = cr.planarize(g, t)
                assert p.graph == g and np.array_equal(p.split_edges, np.arange(g.m + 1))
                shortcuts = grid_augment(p).shortcuts
                assert shortcuts.dtype == np.int64 and shortcuts.shape == (0, 3)
                s = build_disk_system(g)
                assert s.pairs.dtype == np.int64 and s.pairs.tolist() == pairs and s.pairs.shape == (len(pairs), 2)
                counts = covering_counts(s, g.xy)
                assert counts.dtype == np.int64 and counts.tolist() == [1] * g.n
                none = covering_counts(s, np.empty((0, 2)))
                assert none.dtype == np.int64 and none.shape == (0,)


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
