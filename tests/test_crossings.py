import itertools
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import roadgeom as rg
from roadgeom import crossings as cr
from roadgeom.errors import ConfigError, DegeneracyError, InvariantViolation
from roadgeom.geometry import COLLINEAR_OVERLAP, ENDPOINT_TOUCH, PROPER, orient_filtered, segment_contact

import oracles


def record_set(records):
    return {(r.e1, r.e2, r.kind) for r in records}


def oracle_set(g):
    return {(i, j, kind) for (i, j), (kind, _) in oracles.all_pairs_crossings(g).items()}


def segments_graph(segments):
    """One edge per segment [((x1, y1), (x2, y2)), ...]; no shared vertices."""
    points = [p for seg in segments for p in seg]
    edges = [(2 * i, 2 * i + 1, 1.0, 4) for i in range(len(segments))]
    return rg.GeometricGraph.build(points, edges)


class TestFindCrossings:
    def test_x_configuration(self):
        g = rg.GeometricGraph.build(
            [(0, 0), (1, 1), (0, 1), (1, 0)], [(0, 1, 1, 4), (2, 3, 1, 4)]
        )
        recs = cr.find_crossings(g)
        assert len(recs) == 1
        r = recs[0]
        assert r.kind == PROPER and r.point == (0.5, 0.5)
        assert (r.e1, r.e2) == (0, 1)

    def test_shared_endpoint_never_proper(self):
        g = rg.GeometricGraph.build(
            [(0, 0), (1, 0), (0, 1)], [(0, 1, 1, 4), (0, 2, 1, 4)]
        )
        assert len(cr.find_crossings(g)) == 0

    def test_t_junction_is_touch(self):
        g = rg.GeometricGraph.build(
            [(0, 0), (2, 0), (1, -1), (1, 0)], [(0, 1, 1, 4), (2, 3, 1, 4)]
        )
        recs = cr.find_crossings(g)
        assert len(recs) == 1 and recs[0].kind == ENDPOINT_TOUCH
        assert recs[0].point == (1.0, 0.0)

    def test_collinear_overlap_reported(self):
        g = rg.GeometricGraph.build(
            [(0, 0), (2, 0), (1, 0), (3, 0)], [(0, 1, 1, 4), (2, 3, 1, 4)]
        )
        recs = cr.find_crossings(g)
        assert len(recs) == 1 and recs[0].kind == COLLINEAR_OVERLAP

    def test_matches_oracle_random_geometric(self, rgg_small):
        got = record_set(cr.find_crossings(rgg_small))
        want = {(i, j, kind) for (i, j), (kind, _) in oracles.all_pairs_crossings(rgg_small).items()}
        assert got == want

    def test_matches_oracle_gotham(self):
        g = rg.gen_gotham(12, 3, seed=8)
        got = cr.find_crossings(g)
        want = oracles.all_pairs_crossings(g)
        assert record_set(got) == {(i, j, k) for (i, j), (k, _) in want.items()}
        for r in got:
            if r.kind == PROPER:
                wx, wy = want[(r.e1, r.e2)][1]
                assert abs(r.point[0] - wx) < 1e-12 and abs(r.point[1] - wy) < 1e-12

    def test_chord_crossing_counts(self):
        side = 32
        g = rg.gen_gotham(side, 4, seed=17)
        per_chord = {}
        for r in cr.proper_only(cr.find_crossings(g)):
            for e in (r.e1, r.e2):
                if int(g.edge_level[e]) == 1:
                    other = r.e2 if e == r.e1 else r.e1
                    if int(g.edge_level[other]) == 4:
                        per_chord[e] = per_chord.get(e, 0) + 1
        assert len(per_chord) == 4
        for count in per_chord.values():
            assert side - 1 <= count <= 2 * (side - 1)


class TestCrossingTable:
    def test_columns_and_rows(self):
        g = lattice_with_wide_segments()
        t = cr.find_crossings(g)
        assert list(vars(t)) == ["e1", "e2", "x", "y", "level_lo", "level_hi", "kind"]
        assert [c.dtype for c in vars(t).values()] == [np.int64] * 2 + [np.float64] * 2 + [np.int64] * 2 + [np.int8]
        rows = list(t)
        assert len(rows) == len(t) and rows[0] == t[0] and rows[-1] == t[-1]
        for i, r in enumerate(rows):
            assert (r.e1, r.e2) == (t.e1[i], t.e2[i]) and r.point == (t.x[i], t.y[i])
            assert r.level_pair == (t.level_lo[i], t.level_hi[i]) and r.kind == cr.KINDS[t.kind[i]]
        # Rows rebuild the same table; a mask selects a sub-table.
        again = cr._table(rows)
        assert all(np.array_equal(u, v) and u.dtype == v.dtype for u, v in zip(vars(t).values(), vars(again).values()))
        touch = t[t.kind == cr.KINDS.index(ENDPOINT_TOUCH)]
        assert 0 < len(touch) < len(t) and {r.kind for r in touch} == {ENDPOINT_TOUCH}

    def test_empty_inputs(self):
        assert not cr.proper_only([]) and len(cr.proper_only([])) == 0
        assert len(list(cr.proper_only([]))) == 0
        g = rg.gen_gotham(6, 0, seed=0)
        p = cr.planarize(g, [])
        assert p.graph == g and len(p.crossing_vertices) == 0
        assert np.array_equal(p.split_edges, np.arange(g.m + 1))


class TestHistogram:
    def test_empty(self):
        assert cr.crossing_histogram([]) == {}

    def test_single_pair(self):
        rec = cr.CrossingRecord(0, 1, (0, 0), (1, 4), PROPER)
        assert cr.crossing_histogram([rec]) == {(1, 4): 1}

    def test_gotham_levels(self, gotham_medium):
        prop = cr.proper_only(cr.find_crossings(gotham_medium))
        hist = cr.crossing_histogram(prop)
        assert sum(hist.values()) == len(prop)
        assert set(hist) <= {(1, 4), (1, 1)}
        assert hist[(1, 4)] > 0
        assert hist == cr.crossing_histogram(list(prop))


class TestPlanarize:
    def test_plane_graph_identity(self):
        g = rg.gen_gotham(6, 0, seed=0)
        recs = cr.find_crossings(g)
        p = cr.planarize(g, recs)
        assert p.graph == g
        assert len(p.crossing_vertices) == 0

    def test_single_x(self):
        g = rg.GeometricGraph.build(
            [(0, 0), (1, 1), (0, 1), (1, 0)], [(0, 1, 2.0, 4), (2, 3, 1.0, 3)]
        )
        p = cr.planarize(g, cr.find_crossings(g))
        assert p.graph.n == 5 and p.graph.m == 4
        # Crossing row 0 is vertex n + 0, at its point.
        (row,) = p.crossing_vertices
        assert (row.e1, row.e2) == (0, 1) and tuple(p.graph.xy[4]) == row.point == (0.5, 0.5)
        # Chains preserve weight proportionally and inherit the level.
        chain = np.arange(p.split_edges[0], p.split_edges[1])
        assert sum(p.graph.edge_weight[chain]) == pytest.approx(2.0)
        assert all(p.graph.edge_level[chain] == 4)

    def test_gotham_self_check(self, gotham_small):
        recs = cr.find_crossings(gotham_small)
        prop = cr.proper_only(recs)
        p = cr.planarize(gotham_small, recs, verify=True)
        assert p.graph.n == gotham_small.n + len(prop)
        assert len(cr.proper_only(cr.find_crossings(p.graph))) == 0

    def test_leftover_crossing_is_caught(self, gotham_small):
        recs = cr.find_crossings(gotham_small)
        proper = np.flatnonzero(recs.kind == cr.KINDS.index(PROPER))
        assert len(proper) > 1
        for drop in (proper[0], proper[len(proper) // 2]):
            planted = recs[np.arange(len(recs)) != drop]
            with pytest.raises(InvariantViolation, match="planarization left 1 proper crossings"):
                cr.planarize(gotham_small, planted, verify=True)
            cr.planarize(gotham_small, planted, verify=False)
        with pytest.raises(InvariantViolation, match=f"left {len(proper)} proper"):
            cr.planarize(gotham_small, [], verify=True)

    def test_near_crossing_is_caught(self):
        # The second edge's top end lies one ulp above the first edge's line,
        # where the float filter cannot decide; the exact test finds the
        # proper crossing.
        top = np.nextafter(1.0, 2.0)
        g = segments_graph([((0, 0), (6, 2)), ((3, top), (3.5, 0))])
        assert orient_filtered(*(np.array([float(v)]) for v in (0, 0, 6, 2, 3, top)))[0] == 0
        recs = cr.find_crossings(g)
        assert [(r.e1, r.e2, r.kind) for r in recs] == [(0, 1, PROPER)]
        with pytest.raises(InvariantViolation, match="planarization left 1 proper crossings"):
            cr.planarize(g, [], verify=True)
        assert cr.planarize(g, recs, verify=True).graph.n == 5

    def test_chain_concatenates_geometrically(self, gotham_small):
        recs = cr.find_crossings(gotham_small)
        p = cr.planarize(gotham_small, recs)
        for e in range(gotham_small.m):
            chain = range(p.split_edges[e], p.split_edges[e + 1])
            u = int(gotham_small.edge_u[e])
            v = int(gotham_small.edge_v[e])
            assert int(p.graph.edge_u[chain[0]]) == u or int(p.graph.edge_v[chain[0]]) == u
            last = chain[-1]
            assert int(p.graph.edge_u[last]) == v or int(p.graph.edge_v[last]) == v
            # Interior chain vertices are collinear with the original segment.
            a = gotham_small.xy[u]
            b = gotham_small.xy[v]
            for sub in chain:
                for node in (int(p.graph.edge_u[sub]), int(p.graph.edge_v[sub])):
                    q = p.graph.xy[node]
                    cross = (b[0] - a[0]) * (q[1] - a[1]) - (b[1] - a[1]) * (q[0] - a[0])
                    assert abs(cross) < 1e-9 * max(1.0, np.abs(b - a).max())

    def test_concurrent_crossings_rejected(self):
        g = segments_graph([((0, 0), (2, 2)), ((0, 2), (2, 0)), ((0, 1), (2, 1))])
        recs = cr.find_crossings(g)
        assert len(cr.proper_only(recs)) == 3
        with pytest.raises(DegeneracyError, match="concurrent crossings on edge 0"):
            cr.planarize(g, recs)

    def test_endpoint_cut_rejected_before_concurrency(self):
        g = segments_graph([
            ((0, 0), (2, 2)), ((0, 2), (2, 0)), ((0, 1), (2, 1)),
            ((5, 5), (6, 6)), ((5, 6), (6, 5)),
        ])
        recs = list(cr.find_crossings(g)) + [cr.CrossingRecord(3, 4, (6.0, 6.0), (4, 4), PROPER)]
        with pytest.raises(DegeneracyError, match=r"crossing \(3, 4\) lies numerically on an"):
            cr.planarize(g, recs)

    def test_split_edges_cover_every_sub_edge_once(self, gotham_small):
        recs = cr.find_crossings(gotham_small)
        p = cr.planarize(gotham_small, recs)
        off = p.split_edges
        assert off.dtype == np.int64 and len(off) == gotham_small.m + 1
        assert off[0] == 0 and off[-1] == p.graph.m
        # One sub-edge per edge plus one per crossing on it.
        prop = cr.proper_only(recs)
        cuts = np.bincount(np.concatenate([prop.e1, prop.e2]), minlength=gotham_small.m)
        assert np.array_equal(np.diff(off), cuts + 1) and cuts.max() > 1
        owner = np.repeat(np.arange(gotham_small.m), np.diff(off))
        totals = np.bincount(owner, weights=p.graph.edge_weight, minlength=gotham_small.m)
        assert totals == pytest.approx(gotham_small.edge_weight, rel=1e-12)

    def test_collinear_overlap_rejected(self):
        g = rg.GeometricGraph.build(
            [(0, 0), (2, 0), (1, 0), (3, 0)], [(0, 1, 1, 4), (2, 3, 1, 4)]
        )
        with pytest.raises(DegeneracyError, match="collinear"):
            cr.planarize(g, cr.find_crossings(g))


def lattice_with_wide_segments():
    """Unit segments on a lattice around the origin (so the grid cell is 1
    and their endpoints sit on cell boundaries) crossed by wide segments."""
    segs = []
    for i in range(-4, 4):
        for j in range(-4, 4):
            segs.append(((i, j + 0.5), (i + 1, j + 0.5)))
            segs.append(((i + 0.5, j), (i + 0.5, j + 1)))
    segs += [
        ((0, -4), (0, 4)),  # long vertical on a cell boundary
        ((-3.75, -2), (3.25, -2)),  # long horizontal on a cell boundary
        ((-2.5, -4), (-1.5, 4)),  # steep, endpoints on boundaries
        ((1.25, 4), (0.75, -4)),  # steep, falling, right to left
        ((-4, -3.3), (4, 1.7)),  # shallow
        ((3.5, -4), (-3.5, 3)),  # falling diagonal through lattice points
        ((-3.25, 3.5), (2.5, 3.5)),  # horizontal, overlapping lattice segments
    ]
    return segments_graph(segs)


def loop_cell_candidates(g):
    """Reference grid join: the same cells as ``_cell_candidates`` registers,
    walked one segment and one column at a time, as sorted (a, b) pairs."""
    x1, y1, x2, y2 = g.segment_arrays()
    spans = np.maximum(np.abs(x2 - x1), np.abs(y2 - y1))
    h = max(float(np.median(spans[spans > 0])), 1e-12)
    cells = {}
    for i in range(g.m):
        a, b = (x1[i], y1[i]), (x2[i], y2[i])
        if a[0] > b[0]:
            a, b = b, a
        c0, c1 = int(np.floor(a[0] / h)), int(np.floor(b[0] / h))
        r0, r1 = int(np.floor(min(a[1], b[1]) / h)), int(np.floor(max(a[1], b[1]) / h))
        if (c1 - c0 <= 1 and r1 - r0 <= 1) or a[0] == b[0]:
            mine = [(cx, cy) for cx in range(c0, c1 + 1) for cy in range(r0, r1 + 1)]
        else:
            slope = (b[1] - a[1]) / (b[0] - a[0])
            mine = []
            for cx in range(c0, c1 + 1):
                ya = a[1] + slope * (max(a[0], cx * h) - a[0])
                yb = a[1] + slope * (min(b[0], (cx + 1) * h) - a[0])
                lo, hi = int(np.floor(min(ya, yb) / h)), int(np.floor(max(ya, yb) / h))
                mine += [(cx, cy) for cy in range(lo - 1, hi + 2)]
        for cell in mine:
            cells.setdefault(cell, []).append(i)
    pairs = {pair for members in cells.values() for pair in itertools.combinations(members, 2)}
    return sorted(pairs)


class TestWideSegments:
    def test_candidates_equal_loop_reference(self, rgg_small, gotham_small):
        planar = cr.planarize(gotham_small, cr.find_crossings(gotham_small)).graph
        for g in (lattice_with_wide_segments(), rgg_small, planar):
            a, b = cr._cell_candidates(g)
            assert list(zip(a.tolist(), b.tolist())) == loop_cell_candidates(g)

    def test_candidates_cover_oracle(self):
        g = lattice_with_wide_segments()
        a, b = cr._cell_candidates(g)
        assert np.all(a < b) and np.all(np.diff(a * g.m + b) > 0)
        got = set(zip(a.tolist(), b.tolist()))
        assert set(oracles.all_pairs_crossings(g)) <= got

    def test_matches_oracle(self):
        g = lattice_with_wide_segments()
        recs = cr.find_crossings(g)
        assert record_set(recs) == oracle_set(g)
        assert {r.kind for r in recs} == {PROPER, ENDPOINT_TOUCH, COLLINEAR_OVERLAP}
        assert [(r.e1, r.e2) for r in recs] == sorted((r.e1, r.e2) for r in recs)

    def test_huge_edge_uses_bounding_boxes(self):
        # One edge 10^9 grid cells long would take hours to walk cell by cell.
        rng = np.random.default_rng(5)
        start = rng.uniform(0, 10, (200, 2))
        angle = rng.uniform(0, 2 * np.pi, 200)
        end = start + np.column_stack([np.cos(angle), np.sin(angle)])
        direction = np.array([np.cos(0.3), np.sin(0.3)])
        far = 5e8 * direction
        segs = list(zip(map(tuple, start), map(tuple, end)))
        segs.append((tuple((5, 5) - far), tuple((5, 5) + far)))
        g = segments_graph(segs)
        t0 = time.perf_counter()
        recs = cr.find_crossings(g)
        assert time.perf_counter() - t0 < 1.0
        assert record_set(recs) == oracle_set(g)
        assert any(r.e2 == 200 for r in recs)
        a, b = cr._cell_candidates(g)
        assert set(oracles.all_pairs_crossings(g)) <= set(zip(a.tolist(), b.tolist()))

    def test_unrepresentable_grid_is_config_error(self):
        g = segments_graph([((0, 0), (1, 1)), ((0, 1), (1, 0)), ((1e300, 0), (1e300, 1))])
        with pytest.raises(ConfigError, match="crossing grid"):
            cr.find_crossings(g)


class TestWindowedOracleAtScale:
    """find_crossings against the exact oracle inside seeded windows of a
    65k-vertex random geometric graph, and its planarization."""

    @pytest.fixture(scope="class")
    def big(self):
        g = rg.gen_random_geometric(65536, 1.5 / 256, seed=1)
        return g, cr.find_crossings(g)

    def test_windows_match_oracle(self, big):
        g, recs = big
        rng = np.random.default_rng(1)
        x1, y1, x2, y2 = g.segment_arrays()
        half = 2 * 1.5 / 256
        for _ in range(4):
            cx, cy = g.xy[rng.integers(g.n)]
            edges = np.flatnonzero(
                (np.maximum(x1, x2) >= cx - half) & (np.minimum(x1, x2) <= cx + half)
                & (np.maximum(y1, y2) >= cy - half) & (np.minimum(y1, y2) <= cy + half)
            )
            assert 90 <= len(edges) <= 190
            ends = np.unique(np.concatenate([g.edge_u[edges], g.edge_v[edges]]))
            sub = rg.GeometricGraph(
                g.xy[ends],
                np.searchsorted(ends, g.edge_u[edges]),
                np.searchsorted(ends, g.edge_v[edges]),
                g.edge_weight[edges],
                g.edge_level[edges],
            )
            want = {(int(edges[i]), int(edges[j]), kind) for i, j, kind in oracle_set(sub)}
            inside = set(edges.tolist())
            got = {(r.e1, r.e2, r.kind) for r in recs if r.e1 in inside and r.e2 in inside}
            assert got == want and len(want) > 0

    def test_planarize_leaves_no_proper_crossing(self, big):
        g, recs = big
        p = cr.planarize(g, recs, verify=True)
        assert p.graph.n == g.n + len(cr.proper_only(recs))
        assert len(cr.proper_only(cr.find_crossings(p.graph))) == 0


int_coord = st.integers(min_value=-6, max_value=6)


@settings(max_examples=200, deadline=None)
@given(st.tuples(*[int_coord] * 8))
def test_segment_contact_matches_exact_oracle(coords):
    ax, ay, bx, by, cx, cy, dx, dy = (float(c) for c in coords)
    if (ax, ay) == (bx, by) or (cx, cy) == (dx, dy):
        return
    kind, point = segment_contact(ax, ay, bx, by, cx, cy, dx, dy)
    want_kind, want_point = oracles.classify_pair_exact(
        (ax, ay), (bx, by), (cx, cy), (dx, dy), share_vertex=False
    )
    assert kind == want_kind
    if kind == PROPER:
        assert point[0] == pytest.approx(want_point[0], abs=1e-12)
        assert point[1] == pytest.approx(want_point[1], abs=1e-12)
