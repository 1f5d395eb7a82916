import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import roadgeom as rg
from roadgeom.errors import ConfigError, ParseError, ValidationError


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestDimacs:
    def test_smallest_valid_file(self, tmp_path):
        gr = write(tmp_path / "t.gr", "c tiny\np sp 2 2\na 1 2 5\na 2 1 5\n")
        co = write(tmp_path / "t.co", "v 1 0 0\nv 2 3 4\n")
        g = rg.load_dimacs(gr, co)
        assert g.n == 2 and g.m == 1
        assert g.edge(0) == rg.Edge(0, 1, 5.0, 4)
        assert np.allclose(g.xy, [[0, 0], [3e-6, 4e-6]])

    def test_dangling_reference(self, tmp_path):
        gr = write(tmp_path / "t.gr", "p sp 2 1\na 1 3 5\n")
        co = write(tmp_path / "t.co", "v 1 0 0\nv 2 3 4\n")
        with pytest.raises(ValidationError, match="unknown vertex 3"):
            rg.load_dimacs(gr, co)

    def test_malformed_line_reports_lineno(self, tmp_path):
        gr = write(tmp_path / "t.gr", "p sp 1 1\na 1 oops 5\n")
        co = write(tmp_path / "t.co", "v 1 0 0\n")
        with pytest.raises(ParseError, match="t.gr:2"):
            rg.load_dimacs(gr, co)

    def test_count_mismatch(self, tmp_path):
        gr = write(tmp_path / "t.gr", "p sp 2 3\na 1 2 5\na 2 1 5\n")
        co = write(tmp_path / "t.co", "v 1 0 0\nv 2 3 4\n")
        with pytest.raises(ValidationError, match="declares 3 arcs"):
            rg.load_dimacs(gr, co)
        gr2 = write(tmp_path / "u.gr", "p sp 3 2\na 1 2 5\na 2 1 5\n")
        with pytest.raises(ValidationError, match="declares 3 vertices"):
            rg.load_dimacs(gr2, co)

    def test_round_trip(self, tmp_path):
        gr = write(
            tmp_path / "t.gr",
            "p sp 3 6\na 1 2 5\na 2 1 5\na 2 3 7\na 3 2 7\na 1 3 2\na 3 1 2\n",
        )
        co = write(tmp_path / "t.co", "v 1 0 0\nv 2 3000000 4000000\nv 3 -1000000 250\n")
        g = rg.load_dimacs(gr, co)
        rg.save_dimacs(g, tmp_path / "o.gr", tmp_path / "o.co")
        g2 = rg.load_dimacs(tmp_path / "o.gr", tmp_path / "o.co")
        assert g2 == g

    def test_parallel_arc_collapse(self, tmp_path):
        gr = write(tmp_path / "t.gr", "p sp 2 3\na 1 2 5\na 2 1 5\na 1 2 3\n")
        co = write(tmp_path / "t.co", "v 1 0 0\nv 2 3 4\n")
        g = rg.load_dimacs(gr, co)
        assert g.m == 1
        assert g.edge(0).weight == 3.0
        assert g.meta["collapsed_parallel_arcs"] == 1

    def test_duplicate_coordinates_flagged(self, tmp_path):
        gr = write(tmp_path / "t.gr", "p sp 2 2\na 1 2 5\na 2 1 5\n")
        co = write(tmp_path / "t.co", "v 1 7 7\nv 2 7 7\n")
        g = rg.load_dimacs(gr, co)
        assert g.meta["duplicate_coordinate_vertices"] == [(0, 1)]


class TestCsv:
    def test_round_trip(self, tmp_path, gotham_small):
        rg.save_csv(gotham_small, tmp_path / "vertices.csv", tmp_path / "edges.csv")
        g2 = rg.load_csv(tmp_path / "vertices.csv", tmp_path / "edges.csv")
        assert g2 == gotham_small
        # Serializing the reloaded graph is byte-identical.
        rg.save_csv(g2, tmp_path / "v2.csv", tmp_path / "e2.csv")
        assert (tmp_path / "v2.csv").read_bytes() == (tmp_path / "vertices.csv").read_bytes()
        assert (tmp_path / "e2.csv").read_bytes() == (tmp_path / "edges.csv").read_bytes()

    def test_unknown_vertex(self, tmp_path):
        write(tmp_path / "vertices.csv", "id,x,y\n0,0.0,0.0\n")
        write(tmp_path / "edges.csv", "u,v,weight,level\n0,1,1.0,4\n")
        with pytest.raises(ValidationError):
            rg.load_csv(tmp_path / "vertices.csv", tmp_path / "edges.csv")


class TestValidation:
    def test_self_loop(self):
        with pytest.raises(ValidationError, match="self-loop"):
            rg.GeometricGraph.build([(0, 0), (1, 0)], [(0, 0, 1.0, 4)])

    def test_duplicate_edge(self):
        with pytest.raises(ValidationError, match="duplicate"):
            rg.GeometricGraph.build(
                [(0, 0), (1, 0)], [(0, 1, 1.0, 4), (1, 0, 2.0, 4)]
            )

    def test_negative_weight(self):
        with pytest.raises(ValidationError, match="weight"):
            rg.GeometricGraph.build([(0, 0), (1, 0)], [(0, 1, -1.0, 4)])

    def test_bad_level(self):
        with pytest.raises(ValidationError, match="level"):
            rg.GeometricGraph.build([(0, 0), (1, 0)], [(0, 1, 1.0, 9)])

    def test_bad_endpoint(self):
        with pytest.raises(ValidationError, match="out of range"):
            rg.GeometricGraph.build([(0, 0), (1, 0)], [(0, 5, 1.0, 4)])


class TestGotham:
    def test_pure_grid(self):
        g = rg.gen_gotham(4, 0, seed=1)
        assert g.n == 16 and g.m == 24
        assert set(g.edge_level.tolist()) == {4}
        from roadgeom import crossings as cr

        assert len(cr.proper_only(cr.find_crossings(g))) == 0

    def test_determinism(self):
        a = rg.gen_gotham(12, 3, seed=42)
        b = rg.gen_gotham(12, 3, seed=42)
        assert a == b
        c = rg.gen_gotham(12, 3, seed=43)
        assert a != c

    def test_chord_structure(self):
        side, k = 16, 3
        g = rg.gen_gotham(side, k, seed=5)
        assert g.n == side * side + 2 * k
        chords = [e for e in g.edges() if e.level == 1]
        assert len(chords) == k
        for e in chords:
            assert e.u >= side * side and e.v >= side * side

    def test_preconditions(self):
        with pytest.raises(ConfigError):
            rg.gen_gotham(1, 0, seed=0)
        with pytest.raises(ConfigError):
            rg.gen_gotham(2, 1, seed=0)
        with pytest.raises(ConfigError):
            rg.gen_gotham(8, -1, seed=0)


class TestRandomGeometric:
    def test_single_vertex(self):
        g = rg.gen_random_geometric(1, 0.5, seed=0)
        assert g.n == 1 and g.m == 0

    def test_two_vertices(self):
        for seed in range(20):
            g = rg.gen_random_geometric(2, 0.9, seed=seed)
            d = math.hypot(*(g.xy[1] - g.xy[0]))
            if d <= 0.9:
                assert g.m == 1
                assert g.edge(0).weight == pytest.approx(d, rel=1e-15)
            else:
                assert g.m == 0

    def test_matches_all_pairs(self):
        for radius in (0.2, 1e-6, 0.75):
            g = rg.gen_random_geometric(100, radius, seed=3)
            want = set()
            for i in range(100):
                for j in range(i + 1, 100):
                    if math.hypot(*(g.xy[j] - g.xy[i])) <= radius:
                        want.add((i, j))
            got = {(int(u), int(v)) for u, v in zip(g.edge_u, g.edge_v)}
            assert got == want

    def test_determinism(self):
        assert rg.gen_random_geometric(50, 0.2, seed=7) == rg.gen_random_geometric(
            50, 0.2, seed=7
        )


class TestHubSpoke:
    def test_determinism_and_shape(self):
        a = rg.gen_hub_spoke(16, 9, seed=4)
        assert a == rg.gen_hub_spoke(16, 9, seed=4)
        spokes = [e for e in a.edges() if e.level == 1]
        assert len(spokes) == 9
        # Spokes are the long roads: each is several blocks long.
        assert min(e.weight for e in spokes) > 2.0

    def test_preconditions(self):
        with pytest.raises(ConfigError):
            rg.gen_hub_spoke(8, 5, seed=0)
        with pytest.raises(ConfigError):
            rg.gen_hub_spoke(16, 0, seed=0)


class TestStats:
    def test_empty(self):
        g = rg.GeometricGraph.build([], [])
        s = rg.stats(g)
        assert s.n == 0 and s.m == 0 and s.max_degree == 0

    def test_cycle(self):
        g = rg.GeometricGraph.build(
            [(0, 0), (1, 0), (1, 1), (0, 1)],
            [(0, 1, 1, 4), (1, 2, 1, 4), (2, 3, 1, 4), (0, 3, 1, 4)],
        )
        s = rg.stats(g)
        assert s.max_degree == 2
        assert s.degree_histogram == {2: 4}

    def test_histogram_matches_recount(self):
        g = rg.gen_gotham(8, 2, seed=13)
        s = rg.stats(g)
        deg = {}
        for e in g.edges():
            deg[e.u] = deg.get(e.u, 0) + 1
            deg[e.v] = deg.get(e.v, 0) + 1
        hist = {}
        for v in range(g.n):
            d = deg.get(v, 0)
            hist[d] = hist.get(d, 0) + 1
        assert s.degree_histogram == hist
        assert s.max_degree == max(deg.values())


coord = st.floats(
    min_value=-100, max_value=100, allow_nan=False, allow_infinity=False
)


@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    pts = [(draw(coord), draw(coord)) for _ in range(n)]
    possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(possible), unique=True, max_size=len(possible))) if possible else []
    edges = [
        (u, v, draw(st.floats(min_value=0, max_value=50, allow_nan=False)), draw(st.integers(1, 4)))
        for u, v in chosen
    ]
    return rg.GeometricGraph.build(pts, edges)


@settings(max_examples=60, deadline=None)
@given(small_graphs())
def test_csv_round_trip_property(tmp_path_factory, g):
    tmp = tmp_path_factory.mktemp("rt")
    rg.save_csv(g, tmp / "v.csv", tmp / "e.csv")
    assert rg.load_csv(tmp / "v.csv", tmp / "e.csv") == g
