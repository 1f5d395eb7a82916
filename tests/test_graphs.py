import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import roadgeom as rg
from roadgeom.errors import ConfigError, ParseError, ValidationError
from roadgeom.graphs import _nearer_endpoint


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestDimacs:
    def test_smallest_valid_file(self, tmp_path):
        gr = write(tmp_path / "t.gr", "c tiny\np sp 2 2\na 1 2 5\na 2 1 5\n")
        co = write(tmp_path / "t.co", "v 1 0 0\nv 2 3 4\n")
        g = rg.load_dimacs(gr, co)
        assert g.n == 2 and g.m == 1
        assert (g.edge_u[0], g.edge_v[0], g.edge_weight[0], g.edge_level[0]) == (0, 1, 5.0, 4)
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
        assert g.edge_weight[0] == 3.0
        assert g.meta["collapsed_parallel_arcs"] == 1

    def test_duplicate_coordinates_flagged(self, tmp_path):
        gr = write(tmp_path / "t.gr", "p sp 2 2\na 1 2 5\na 2 1 5\n")
        co = write(tmp_path / "t.co", "v 1 7 7\nv 2 7 7\n")
        g = rg.load_dimacs(gr, co)
        assert g.meta["duplicate_coordinate_vertices"] == [(0, 1)]


def test_duplicate_coordinate_groups_match_per_group_scan():
    def per_group_scan(g):  # the O(n x groups) expression the grouping replaced
        _, inverse, counts = np.unique(g.xy, axis=0, return_inverse=True, return_counts=True)
        return [tuple(int(i) for i in np.flatnonzero(inverse == k)) for k in np.flatnonzero(counts > 1)]

    rng = np.random.default_rng(5)
    for n in (1, 2, 7, 50, 400):
        xy = rng.integers(0, 4, size=(n, 2)).astype(float) if n < 50 else rng.random((n, 2))
        planted = rng.integers(0, n, size=(n // 5, 2))
        xy[planted[:, 0]] = xy[planted[:, 1]]
        g = rg.GeometricGraph.build(xy, [])
        groups = g.duplicate_coordinate_groups()
        assert groups == per_group_scan(g)
        assert all(type(v) is int for group in groups for v in group)
    assert rg.GeometricGraph.build([], []).duplicate_coordinate_groups() == []


def test_duplicate_coordinate_groups_treat_signed_zeros_as_equal():
    # np.unique(axis=0) groups -0.0 with 0.0; the sorted scan must as well.
    xy = [(0.0, 1.0), (-0.0, 1.0), (2.0, -0.0), (1.0, 1.0), (2.0, 0.0), (-0.0, -0.0), (0.0, 0.0)]
    g = rg.GeometricGraph.build(xy, [])
    assert g.duplicate_coordinate_groups() == [(5, 6), (0, 1), (2, 4)]


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

    @pytest.mark.parametrize("xy", [[0.0, 1.0, 2.0], [[0.0, 1.0, 2.0]], [[[0.0, 1.0]]]])
    def test_coordinates_not_in_two_columns_are_rejected(self, xy):
        with pytest.raises(ValidationError, match="two columns"):
            rg.GeometricGraph(xy, [], [], [], [])


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
        chords = g.edge_level == 1
        assert chords.sum() == k
        assert (g.edge_u[chords] >= side * side).all() and (g.edge_v[chords] >= side * side).all()

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

    @pytest.mark.parametrize("radius", [0.0, -1.0, math.nan])
    def test_radius_must_be_positive(self, radius):
        with pytest.raises(ConfigError, match="radius must be > 0"):
            rg.gen_random_geometric(40, radius, seed=0)

    def test_two_vertices(self):
        for seed in range(20):
            g = rg.gen_random_geometric(2, 0.9, seed=seed)
            d = math.hypot(*(g.xy[1] - g.xy[0]))
            if d <= 0.9:
                assert g.m == 1
                assert g.edge_weight[0] == pytest.approx(d, rel=1e-15)
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
        spokes = a.edge_level == 1
        assert spokes.sum() == 9
        # Spokes are the long roads: each is several blocks long.
        assert a.edge_weight[spokes].min() > 2.0

    def test_preconditions(self):
        with pytest.raises(ConfigError):
            rg.gen_hub_spoke(8, 5, seed=0)
        with pytest.raises(ConfigError):
            rg.gen_hub_spoke(16, 0, seed=0)


def scalar_nearer_endpoint(g, e, px, py, swapped=False):
    """Per query, the endpoint nearer the point by (x - px) ** 2 + (y - py) ** 2
    in Python floats, then the lower vertex id; ``swapped`` sums the y term
    first, the order of a ray along the x axis."""
    out = []
    for k, a, b in zip(e.tolist(), px.tolist(), py.tolist()):
        ends = []
        for w in (int(g.edge_u[k]), int(g.edge_v[k])):
            x, y = g.xy[w].tolist()
            ends.append(((y - b) ** 2 + (x - a) ** 2 if swapped else (x - a) ** 2 + (y - b) ** 2, w))
        out.append(min(ends)[1])
    return out


class TestNearerEndpoint:
    """The one endpoint rule of crossing charges and shortcut targets."""

    def check(self, g, e, px, py):
        got = _nearer_endpoint(g, e, px, py).tolist()
        assert got == scalar_nearer_endpoint(g, e, px, py)
        assert got == scalar_nearer_endpoint(g, e, px, py, swapped=True)
        return got

    def test_lattice_ties_go_to_the_lower_id(self):
        rng = np.random.default_rng(5)
        xy = np.array([(x, y) for x in range(5) for y in range(5)], dtype=np.float64)[rng.permutation(25)]
        pairs = {tuple(sorted(p)) for p in rng.integers(25, size=(60, 2)).tolist() if p[0] != p[1]}
        g = rg.GeometricGraph.build(xy, [(u, v, 1.0) for u, v in sorted(pairs)])
        grid = np.arange(-2, 11) / 2.0
        px, py = (np.tile(c.ravel(), g.m) for c in np.meshgrid(grid, grid))
        e = np.repeat(np.arange(g.m), len(grid) ** 2)
        got = self.check(g, e, px, py)
        # Squares of halves are exact: ties are common, and each goes to edge_u.
        p = np.column_stack([px, py])
        tie = ((g.xy[g.edge_u[e]] - p) ** 2).sum(axis=1) == ((g.xy[g.edge_v[e]] - p) ** 2).sum(axis=1)
        assert tie.sum() > 400
        assert np.array_equal(np.asarray(got)[tie], g.edge_u[e][tie])

    def test_random_points_at_every_scale(self):
        rng = np.random.default_rng(9)
        n, k = 400, 20000
        xy = rng.normal(size=(n, 2)) * 10.0 ** rng.integers(-8, 9, size=(n, 1))
        g = rg.GeometricGraph.build(xy, [(2 * i, 2 * i + 1, 1.0) for i in range(n // 2)])
        e = rng.integers(g.m, size=k)
        mid = (g.xy[g.edge_u[e]] + g.xy[g.edge_v[e]]) / 2
        p = mid + rng.normal(size=(k, 2)) * 10.0 ** rng.integers(-8, 9, size=(k, 1))
        self.check(g, e, p[:, 0], p[:, 1])


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
