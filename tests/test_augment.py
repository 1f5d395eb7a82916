import time
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import roadgeom as rg
from roadgeom import _arrays, augment
from roadgeom import crossings as cr
from roadgeom._arrays import arcs_csr, components
from roadgeom.augment import DIRECTIONS, NeighborlyReport, clustering_check, grid_augment, neighborly_check
from roadgeom.disks import DiskSystem, build_disk_system
from roadgeom.errors import ConfigError, DegeneracyError

import reference


def planarized(g):
    return cr.planarize(g, cr.find_crossings(g))


def named(aug):
    """The shortcuts as (origin, target, direction name) rows."""
    return tuple((o, t, DIRECTIONS[c]) for o, t, c in aug.shortcuts.tolist())


def shortcut_map(aug):
    return {(o, d): t for o, t, d in named(aug)}


def oracle_shortcuts(g):
    """The oracle's shortcuts as grid_augment orders them: by origin, then
    up, down, left, right (the order the oracle finds them in)."""
    return tuple((v, t, d) for (v, d), t in reference.ray_shoot_all(g).items())


@st.composite
def lattice_graphs(draw):
    """Small graphs on the integer lattice 0..4, which makes collinear
    edges, rays through vertices and distance ties common, plus at times
    one edge 2e6 wide (a candidate of every ray)."""
    pts = draw(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=2, max_size=9, unique=True))
    pairs = st.tuples(st.integers(0, len(pts) - 1), st.integers(0, len(pts) - 1))
    edges = {(min(u, v), max(u, v)) for u, v in draw(st.lists(pairs, max_size=10)) if u != v}
    wide = draw(st.one_of(st.none(), st.tuples(st.booleans(), st.integers(0, 4), st.integers(0, 4))))
    if wide is not None:
        vertical, c1, c2 = wide
        ends = [(-1e6, c1), (1e6, c2)]
        pts += [(b, a) for a, b in ends] if vertical else ends
        edges.add((len(pts) - 2, len(pts) - 1))
    return rg.GeometricGraph.build(pts, [(u, v, 1.0, 4) for u, v in sorted(edges)])


@st.composite
def directed_searches(draw):
    """A random directed multigraph on n <= 14 vertices (self-loops and
    repeated arcs allowed) and (start, goal) pairs on it, with repeats and
    start == goal; at times a long path, whose far end lies past small
    cutoffs."""
    n = draw(st.integers(1, 14))
    vertex = st.integers(0, n - 1)
    arcs = draw(st.lists(st.tuples(vertex, vertex), max_size=3 * n))
    if draw(st.booleans()):
        arcs += [(v, v + 1) for v in range(n - 1)]
    pairs = draw(st.lists(st.tuples(vertex, vertex), min_size=1, max_size=40))
    tail, head = np.array(arcs, dtype=np.int64).reshape(-1, 2).T
    start, goal = np.array(pairs, dtype=np.int64).T
    return n, tail, head, start, goal


def with_checks(graphs):
    """(graph, augmented graph, disk system) of each graph."""
    for g in graphs:
        yield g, grid_augment(planarized(g)), build_disk_system(g)


def parallel_roads():
    """Two horizontal roads, vertically close, never connected."""
    pts = [(float(i), 0.0) for i in range(4)] + [(float(i), 0.9) for i in range(4)]
    edges = [(i, i + 1, 1.0, 4) for i in range(3)]
    edges += [(4 + i, 5 + i, 1.0, 4) for i in range(3)]
    return rg.GeometricGraph.build(pts, edges)


def one_way_shortcut():
    """A short vertical road above a long horizontal one: the lower end's
    down ray reaches the long road, whose up rays miss the short one."""
    pts = [(5.5, 0.3), (5.5, 1.3)] + [(float(i), 0.0) for i in range(11)]
    edges = [(0, 1, 1.0, 4)] + [(2 + i, 3 + i, 1.0, 4) for i in range(10)]
    return rg.GeometricGraph.build(pts, edges)


class TestGridAugment:
    def test_symmetric_tie_goes_to_lower_id(self):
        # Horizontal edge centered above the origin: both endpoints are
        # equidistant from the hit point, so the lower id wins.
        g = rg.GeometricGraph.build(
            [(0.0, 0.0), (-1.0, 1.0), (1.0, 1.0)], [(1, 2, 1.0, 4)]
        )
        aug = grid_augment(planarized(g))
        assert shortcut_map(aug)[(0, "up")] == 1

    def test_single_edge_no_shortcuts(self):
        g = rg.GeometricGraph.build([(0.0, 0.0), (1.0, 1.0)], [(0, 1, 1.0, 4)])
        aug = grid_augment(planarized(g))
        assert aug.shortcuts.shape == (0, 3)

    def test_out_degree_increase_at_most_four(self, gotham_small):
        aug = grid_augment(planarized(gotham_small))
        per_vertex = {}
        for o, _, _ in aug.shortcuts:
            per_vertex[o] = per_vertex.get(o, 0) + 1
        assert max(per_vertex.values()) <= 4

    def test_grid_matches_ray_oracle(self):
        g = rg.gen_gotham(16, 0, seed=0)
        aug = grid_augment(planarized(g))
        got = shortcut_map(aug)
        assert got == reference.ray_shoot_all(g)

    def test_gotham_with_chords_matches_oracle(self):
        g = rg.gen_gotham(12, 2, seed=6)
        aug = grid_augment(planarized(g))
        assert shortcut_map(aug) == reference.ray_shoot_all(g)

    def test_random_geometric_matches_oracle(self, rgg_small):
        aug = grid_augment(planarized(rgg_small))
        assert shortcut_map(aug) == reference.ray_shoot_all(rgg_small)

    def test_wide_edges_match_oracle_quickly(self):
        # 200 unit edges (ten rows of 20) plus one horizontal and one
        # vertical edge of span 1e9: registering those in every slab they
        # span would take hours.
        pts = [(float(x), 2.0 * row) for row in range(10) for x in range(21)]
        edges = [(21 * row + x, 21 * row + x + 1, 1.0, 4) for row in range(10) for x in range(20)]
        pts += [(-10.0, -5.0), (1e9, -5.0), (-20.0, -10.0), (-20.0, 1e9)]
        edges += [(210, 211, 1e9, 1), (212, 213, 1e9, 1)]
        g = rg.GeometricGraph.build(pts, edges)
        p = planarized(g)
        start = time.perf_counter()
        aug = grid_augment(p)
        assert time.perf_counter() - start < 1.0
        assert shortcut_map(aug) == reference.ray_shoot_all(g)

    def test_far_apart_grids_match_oracle_quickly(self):
        # Two 8 x 8 unit grids 10^6 apart in y: the rays between them step
        # over the empty rows to the next occupied cell, not row by row.
        pts = [(float(x), y0 + j) for y0 in (0.0, 1e6) for x in range(8) for j in range(8)]
        edges = [(v, v + 1, 1.0, 4) for v in range(128) if v % 8 < 7]
        edges += [(v, v + 8, 1.0, 4) for v in range(128) if v % 64 < 56]
        g = rg.GeometricGraph.build(pts, edges)
        p = planarized(g)
        start = time.perf_counter()
        aug = grid_augment(p)
        assert time.perf_counter() - start < 1.0
        assert named(aug) == oracle_shortcuts(g)

    @pytest.mark.parametrize(
        "h, x, edge, bar",
        [
            # Edge A's hit at x rounds one ulp below its own cells, into row
            # 0, and ties there with bar B: A, the lower edge, wins only if
            # the walk reads a row past B's before it stops.
            (
                3.3071375579861866, -2.9035013626640533,
                ((-3.5683852052631737, 7.642716096241715), (-2.9035013626640533, 3.3071375579861866)),
                (3.307137557986186, 1.0),
            ),
            # Edge E lies in row -1, but its hit rounds to 0.0, the origin:
            # the walk must start a row behind the origin's.
            (
                0.7104321571333317, 4.487518620441453,
                ((4.194116612430047, -0.27651172559084236), (4.487518620441453, -5e-324)),
                (0.5, 0.2),
            ),
        ],
    )
    def test_hits_rounded_across_a_row_match_oracle(self, h, x, edge, bar):
        # Vertex 0's up ray meets edge 1-2 first; five filler edges of span
        # h far below make h the median span, the grid's cell side.
        y, half = bar
        pts = [(x, 0.0), *edge, (x - half, y), (x + half, y)]
        pts += [p for k in range(5) for p in ((0.0, -1e3 - 10.0 * k), (h, -1e3 - 10.0 * k))]
        edges = [(1, 2, 1.0, 4), (3, 4, 1.0, 4)] + [(5 + 2 * k, 6 + 2 * k, 1.0, 4) for k in range(5)]
        g = rg.GeometricGraph.build(pts, edges)
        aug = grid_augment(planarized(g))
        assert shortcut_map(aug)[(0, "up")] == 2
        assert named(aug) == oracle_shortcuts(g)

    def test_steep_edge_at_a_column_boundary_matches_oracle(self):
        # Vertex 0 sits at x = q, which rounds into column c though
        # q < c * h; its up ray meets steep edge 1-2 at its foot, in rows
        # the edge must register in column c, before bar 3-4.
        h, c = 0.5247914532927936, 175268
        q = float(np.nextafter(c * h, -np.inf))
        pts = [(q, -5 * h), (q, 0.0), (c * h, 50 * h), (q - 0.3 * h, 10 * h), (q + 0.3 * h, 10 * h)]
        pts += [p for k in range(1, 61) for p in ((0.0, -1e3 * k), (h, -1e3 * k))]
        edges = [(1, 2, 1.0, 4), (3, 4, 1.0, 4)] + [(3 + 2 * k, 4 + 2 * k, 1.0, 4) for k in range(1, 61)]
        g = rg.GeometricGraph.build(pts, edges)
        aug = grid_augment(planarized(g))
        assert shortcut_map(aug)[(0, "up")] == 1
        assert named(aug) == oracle_shortcuts(g)

    def test_ray_through_vertex_counts_as_hit(self):
        # The up ray passes exactly through vertex (0, 1) of edge (1)-(2).
        g = rg.GeometricGraph.build(
            [(0.0, 0.0), (0.0, 1.0), (2.0, 3.0)], [(1, 2, 1.0, 4)]
        )
        aug = grid_augment(planarized(g))
        assert shortcut_map(aug)[(0, "up")] == 1

    @pytest.mark.parametrize("block", [1, 7])
    def test_candidate_blocks_match_oracle(self, monkeypatch, hub_small, block):
        # At a block of 1 every ray's candidates overflow it.
        monkeypatch.setattr(_arrays, "_PAIR_BLOCK", block)
        for g in (rg.gen_gotham(12, 2, seed=6), hub_small):
            assert named(grid_augment(planarized(g))) == oracle_shortcuts(g)

    def test_far_off_isolated_vertices_miss_every_slab(self):
        pts = [(float(x), 0.0) for x in range(6)] + [(0.5, 1e300), (1e300, 0.5), (-1e300, -1e300)]
        g = rg.GeometricGraph.build(pts, [(x, x + 1, 1.0, 4) for x in range(5)])
        p = planarized(g)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            aug = grid_augment(p)
        assert named(aug) == oracle_shortcuts(g)
        assert shortcut_map(aug)[(6, "down")] == 0

    def test_inexact_slab_coordinates_are_config_error(self):
        # Cell 1e17 of side 1 is past 2^48, where a coordinate's rounding
        # is no longer small against the cell.
        pts = [(float(x), 0.0) for x in range(4)] + [(1e17, 0.0), (1e17 + 32.0, 0.0)]
        g = rg.GeometricGraph.build(pts, [(0, 1, 1.0, 4), (1, 2, 1.0, 4), (2, 3, 1.0, 4), (4, 5, 1.0, 4)])
        with pytest.raises(ConfigError, match="shortcut grid"):
            grid_augment(cr.planarize(g, cr.find_crossings(g)))

    @pytest.mark.parametrize("wide_first, want", [(False, 1), (True, 3)])
    def test_wide_and_narrow_edge_tie_goes_to_lower_edge(self, wide_first, want):
        # Vertex 0's up ray hits the narrow edge (1)-(2) and the wide edge
        # (3)-(4) both at (0, 1); the lower edge index wins, whichever of
        # the two is the wide one.
        pts = [(0.0, 0.0), (-1.0, 0.0), (1.0, 2.0), (-1e9, 1.0), (1e9, 1.0)]
        pts += [(float(x), -5.0) for x in range(6)]
        edges = [(1, 2, 1.0, 4), (3, 4, 1.0, 4)]
        if wide_first:
            edges.reverse()
        g = rg.GeometricGraph.build(pts, edges + [(5 + x, 6 + x, 1.0, 4) for x in range(5)])
        aug = grid_augment(planarized(g))
        assert shortcut_map(aug)[(0, "up")] == want
        assert named(aug) == oracle_shortcuts(g)

    @settings(max_examples=150, deadline=None)
    @given(lattice_graphs())
    def test_lattice_graphs_match_oracle(self, g):
        try:
            p = cr.planarize(g, cr.find_crossings(g))
        except DegeneracyError:
            assume(False)
        assert named(grid_augment(p)) == oracle_shortcuts(g)


class TestNeighborly:
    def test_adjacent_pair_one_hop(self):
        g = rg.GeometricGraph.build([(0.0, 0.0), (1.0, 0.0)], [(0, 1, 1.0, 4)])
        s = build_disk_system(g)
        rep = neighborly_check(grid_augment(planarized(g)), s)
        assert rep.max_hops_augmented == 1
        assert rep.max_hops_plain == 1

    def test_parallel_roads_need_shortcuts(self):
        # Plain search hits the cutoff, augmented search jumps across the
        # two roads in <= 2 hops.
        g = parallel_roads()
        s = build_disk_system(g)
        cross_pairs = [
            (int(i), int(j)) for i, j in s.pairs if (int(i) < 4) != (int(j) < 4)
        ]
        assert cross_pairs, "disks must intersect across the two roads"
        rep = neighborly_check(grid_augment(planarized(g)), s, cutoff=50)
        assert rep.plain_truncated
        assert rep.max_hops_plain == 50
        assert not rep.augmented_truncated
        assert rep.max_hops_augmented <= 3

    def test_matches_bfs_oracle(self, gotham_small, hub_small):
        # The rgg has many components; the two roads have disk pairs whose
        # centers the plain graph cannot connect at all; the one-way
        # shortcut joins a pair in one direction only.
        rgg = rg.gen_random_geometric(200, 0.06, seed=1)
        assert len(set(components(rgg.n, rgg.edge_u, rgg.edge_v).tolist())) > 1
        for g in (gotham_small, hub_small, rgg, parallel_roads(), one_way_shortcut()):
            s = build_disk_system(g)
            aug = grid_augment(planarized(g))
            for cutoff in (1, 2, 5, 250):
                rep = neighborly_check(aug, s, cutoff=cutoff)
                want = reference.neighborly(g, s, aug.shortcuts, cutoff)
                assert rep == NeighborlyReport(*want), (g.n, cutoff)
            if g is gotham_small:
                # Shortcut contrast, reported only.
                print(
                    f"\nneighborly gotham-16x2: augmented {rep.max_hops_augmented} "
                    f"vs plain {rep.max_hops_plain} (cutoff 250)"
                )

    @settings(max_examples=300, deadline=None)
    @given(
        directed_searches(),
        st.sampled_from([1, 2, 5, 250]),
        st.sampled_from([1, 3, 64]),
        st.sampled_from([0, 1, 8]),
    )
    def test_pair_hops_matches_list_loop(self, search, cutoff, wide, budget):
        # A wide threshold of 1 or 3 sends small graphs' sources through
        # the bit-parallel search as well; a budget of 0 or 1 visited keys
        # per vertex prunes the frontier search's visited keys and hands its
        # live sources over to the bit-parallel search midway.
        n, tail, head, start, goal = search
        indptr, nbr = arcs_csr(n, tail, head)[:2]
        label = components(n, tail, head)
        with mock.patch.object(augment, "_WIDE", wide), mock.patch.object(augment, "_SEEN_BUDGET", budget):
            got = augment._pair_hops(indptr, nbr, start, goal, cutoff, label)
        want = reference.pair_hops(indptr, nbr, start, goal, cutoff)
        assert got.dtype == want.dtype and got.tolist() == want.tolist()

    @pytest.mark.parametrize("budget", [0, 1, 2, 3])
    def test_visited_budget_prunes_then_hands_over(self, monkeypatch, budget):
        # A path 0-1-...-9: sources 2..8 each find their one goal at level 1
        # and retire, while source 0 searches on for goal 9.  After level 1
        # the 8 sources hold 23 visited keys, 2 of them source 0's: a budget
        # of 1 or 2 keys per vertex prunes the retired sources' keys and
        # goes on, 0 hands source 0 over to the bit-parallel search, and 3
        # does neither.
        n = 10
        tail = np.concatenate([np.arange(n - 1), np.arange(1, n)])
        indptr, nbr = arcs_csr(n, tail, np.concatenate([np.arange(1, n), np.arange(n - 1)]))[:2]
        start = np.array([0, 0] + list(range(2, 9)))
        goal = np.array([1, 9] + list(range(3, 10)))
        monkeypatch.setattr(augment, "_SEEN_BUDGET", budget)
        for cutoff in (2, 9, 250):
            got = augment._pair_hops(indptr, nbr, start, goal, cutoff, np.zeros(n, dtype=np.int64))
            assert got.tolist() == reference.pair_hops(indptr, nbr, start, goal, cutoff).tolist()

    def test_bit_parallel_words_match_oracle(self, monkeypatch, gotham_small, hub_small):
        # At a wide threshold of 1 every source with a partner searches
        # bit-parallel, more than 64 of them, so in two or more words.
        monkeypatch.setattr(augment, "_WIDE", 1)
        sources = []
        word_search = augment._word_search

        def spy(indptr, nbr, keys, cutoff):
            sources.append(len(np.unique(keys // (len(indptr) - 1))))
            return word_search(indptr, nbr, keys, cutoff)

        monkeypatch.setattr(augment, "_word_search", spy)
        for g, aug, s in with_checks((gotham_small, hub_small, one_way_shortcut())):
            for cutoff in (2, 250):
                rep = neighborly_check(aug, s, cutoff=cutoff)
                assert rep == NeighborlyReport(*reference.neighborly(g, s, aug.shortcuts, cutoff)), (g.n, cutoff)
        assert max(sources) > 64

    @pytest.mark.parametrize("seed", [1, 2])
    def test_benchmark_graphs_match_list_loop(self, monkeypatch, seed):
        # The full-size hubspoke-locality and gotham-route generators; the
        # list loop takes no component labels.
        for g, aug, s in with_checks((rg.gen_hub_spoke(64, 21, seed), rg.gen_gotham(64, 8, seed))):
            got = neighborly_check(aug, s)
            with monkeypatch.context() as m:
                m.setattr(augment, "_pair_hops", lambda *args: reference.pair_hops(*args[:5]))
                assert got == neighborly_check(aug, s), g.n

    def test_worst_pairs_is_the_full_lexsort_head(self):
        # Few distinct hop counts and endpoints: many pairs tie on worst,
        # and some on (worst, v) too.
        rng = np.random.default_rng(5)
        for size, levels in ((0, 1), (3, 2), (10, 1), (11, 2), (500, 1), (500, 3), (5000, 40)):
            for _ in range(20):
                worst = rng.integers(0, levels, size=size)
                v, w = rng.integers(0, 8, size=(2, size))
                want = np.lexsort((w, v, -worst))[:10]
                assert np.array_equal(augment._worst_pairs(worst, v, w), want), (size, levels)

    def test_out_neighbors_csr(self, gotham_small):
        aug = grid_augment(planarized(gotham_small))
        indptr, nbr = aug.out_neighbors()
        want = [[] for _ in range(gotham_small.n)]
        for u, v in zip(gotham_small.edge_u.tolist(), gotham_small.edge_v.tolist()):
            want[u].append(v)
            want[v].append(u)
        for origin, target, _ in aug.shortcuts:
            want[origin].append(target)
        got = [nbr[indptr[v] : indptr[v + 1]].tolist() for v in range(gotham_small.n)]
        assert got == want


class TestClustering:
    def test_kissing_pair(self):
        s = DiskSystem(
            [0, 1],
            [(0.0, 0.0), (2.0, 0.0)],
            [1.0, 1.0],
            np.asarray([[0, 1]]),
        )
        rep = clustering_check(s)
        # Positions tie on radius, so position 1 sees position 0 as smaller.
        assert rep.component_counts.tolist() == [0, 1]
        assert rep.max_components == 1

    def test_big_disk_with_three_islands(self):
        centers = [(0.0, 0.0), (8.0, 0.0), (-8.0, 0.0), (0.0, 8.0)]
        radii = [10.0, 1.0, 1.0, 1.0]
        pairs = [(0, 1), (0, 2), (0, 3)]
        s = DiskSystem(np.arange(4), centers, radii, np.asarray(pairs))
        rep = clustering_check(s)
        assert rep.component_counts[0] == 3
        assert rep.max_components == 3

    def test_matches_union_find_oracle(self):
        g = rg.gen_random_geometric(150, 0.14, seed=12)
        s = build_disk_system(g)
        rep = clustering_check(s)
        assert rep.component_counts.tolist() == reference.smaller_neighbor_component_counts(s)
