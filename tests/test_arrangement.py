import itertools
import math

import numpy as np
import pytest

import roadgeom as rg
from roadgeom.arrangement import (
    build_inductive,
    build_naive,
    complexity_audit,
    system_ply,
)
from roadgeom.augment import clustering_check
from roadgeom.disks import DiskSystem, build_disk_system, covering_counts
from roadgeom.errors import DegeneracyError, InvariantViolation
from roadgeom.geometry import circle_pair_points, orient

import oracles
import reference


def system_from(centers, radii):
    centers = np.asarray(centers, dtype=np.float64)
    radii = np.asarray(radii, dtype=np.float64)
    pairs = sorted(
        oracles.all_pairs_disk_pairs(type("S", (), {"centers": centers, "radii": radii}))
    )
    return DiskSystem(
        np.arange(len(radii)), centers, radii, np.asarray(pairs).reshape(-1, 2)
    )


def ring_signature(arr):
    """Per circle: the angle-ordered list of (partner circles, point)."""
    out = {}
    for c, ring in arr.rings.items():
        out[c] = [(arr.vertices[v].circles, arr.vertices[v].point) for v in ring]
    return out


def assert_structurally_equal(a, b, tol=1e-9):
    sig_a, sig_b = ring_signature(a), ring_signature(b)
    assert sig_a.keys() == sig_b.keys()
    for c in sig_a:
        assert len(sig_a[c]) == len(sig_b[c]), f"circle {c} ring lengths differ"
        for (pair_a, pt_a), (pair_b, pt_b) in zip(sig_a[c], sig_b[c]):
            assert pair_a == pair_b
            assert abs(pt_a[0] - pt_b[0]) <= tol and abs(pt_a[1] - pt_b[1]) <= tol


class TestBuildNaive:
    def test_single_circle_euler(self):
        arr = build_naive(system_from([(0.0, 0.0)], [1.0]))
        assert arr.vertex_count == 1  # the sentinel
        assert arr.intersection_vertex_count == 0
        assert arr.edge_count == 1
        assert arr.face_count() == 2
        assert arr.euler_check()

    def test_lens(self):
        arr = build_naive(system_from([(0.0, 0.0), (1.0, 0.0)], [1.0, 1.0]))
        assert arr.vertex_count == 2
        assert arr.edge_count == 4
        assert arr.face_count() == 4
        assert arr.euler_check()

    def test_tangent_pair_one_vertex(self):
        arr = build_naive(system_from([(0.0, 0.0), (2.0, 0.0)], [1.0, 1.0]))
        assert arr.vertex_count == 1
        assert arr.vertices[0].tangent
        assert arr.face_count() == 3
        assert arr.euler_check()

    def test_internal_tangency(self):
        arr = build_naive(system_from([(0.0, 0.0), (1.0, 0.0)], [3.0, 2.0]))
        assert arr.vertex_count == 1
        assert arr.face_count() == 3
        assert arr.euler_check()

    def test_nested_circles_no_vertices(self):
        arr = build_naive(system_from([(0.0, 0.0), (0.2, 0.0)], [5.0, 1.0]))
        assert arr.intersection_vertex_count == 0
        assert arr.vertex_count == 2  # two sentinels
        assert arr.component_count == 2
        assert arr.euler_check()

    def test_duplicate_circles_rejected(self):
        with pytest.raises(DegeneracyError, match="duplicate circles"):
            build_naive(system_from([(0.0, 0.0), (0.0, 0.0)], [1.0, 1.0]))

    def test_rings_match_recomputation(self):
        g = rg.gen_random_geometric(30, 0.3, seed=1)
        s = build_disk_system(g)
        arr = build_naive(s)
        for c, ring in arr.rings.items():
            angles = [
                math.atan2(arr.table.y[v] - s.centers[c, 1], arr.table.x[v] - s.centers[c, 0])
                for v in ring
            ]
            assert angles == sorted(angles)
            for v in ring:
                pair = arr.vertices[v].circles
                assert c in pair or pair == (c, -1)
                if pair[1] != -1:
                    i, j = pair
                    # The vertex really lies on both circles.
                    for cc in (i, j):
                        d = math.hypot(
                            arr.vertices[v].point[0] - s.centers[cc, 0],
                            arr.vertices[v].point[1] - s.centers[cc, 1],
                        )
                        assert d == pytest.approx(float(s.radii[cc]), rel=1e-9)


class TestBuildInductive:
    def test_disjoint_circles(self):
        s = system_from([(0.0, 0.0), (5.0, 0.0), (10.0, 0.0)], [1.0, 1.0, 1.0])
        arr = build_inductive(s, clustering_check(s))
        assert arr.intersection_vertex_count == 0
        assert arr.vertex_count == 3
        assert arr.euler_check()

    def test_chain_matches_naive(self):
        s = system_from([(0.0, 0.0), (1.5, 0.0), (3.0, 0.0)], [1.0, 1.0, 1.0])
        assert_structurally_equal(
            build_inductive(s, clustering_check(s)), build_naive(s)
        )

    def test_random_matches_naive(self):
        for seed in (0, 3, 8):
            g = rg.gen_random_geometric(100, 0.14, seed=seed)
            s = build_disk_system(g)
            a = build_inductive(s, clustering_check(s))
            b = build_naive(s)
            assert_structurally_equal(a, b)
            assert a.euler_check() and b.euler_check()

    def test_hub_spoke_matches_naive(self, hub_small):
        s = build_disk_system(hub_small)
        a = build_inductive(s, clustering_check(s))
        b = build_naive(s)
        assert_structurally_equal(a, b)

    def test_stale_clustering_rejected(self):
        s = system_from([(0.0, 0.0), (1.5, 0.0), (3.0, 0.0)], [1.0, 1.0, 1.0])
        rep = clustering_check(s)
        bad = type(rep)(rep.component_counts + 1, rep.max_components + 1)
        with pytest.raises(InvariantViolation, match="clustering"):
            build_inductive(s, bad)


class TestComplexityAudit:
    def test_kissing(self):
        s = system_from([(0.0, 0.0), (2.0, 0.0)], [1.0, 1.0])
        audit = complexity_audit(build_naive(s), s)
        assert audit.vertex_count == 1 <= 2 * len(s.pairs)

    def test_lens(self):
        s = system_from([(0.0, 0.0), (1.0, 0.0)], [1.0, 1.0])
        audit = complexity_audit(build_naive(s), s)
        assert audit.vertex_count == 2 == 2 * len(s.pairs)

    def test_bound_holds_everywhere(self, rgg_small, hub_small):
        for g in (rgg_small, hub_small):
            s = build_disk_system(g)
            arr = build_naive(s)
            audit = complexity_audit(arr, s)
            assert audit.vertex_count <= 2 * len(s.pairs)
            assert audit.per_vertex_ratio == audit.vertex_count / len(s)


class TestDepths:
    def test_vertex_depths(self):
        s = system_from([(0.0, 0.0), (1.0, 0.0)], [1.0, 1.0])
        arr = build_naive(s)
        depths = covering_counts(s, np.column_stack([arr.table.x, arr.table.y]))
        # Lens crossing points lie on both circles.
        assert np.all(depths == 2)

    def test_system_ply_matches_brute_force(self):
        for seed in (2, 7):
            g = rg.gen_random_geometric(60, 0.2, seed=seed)
            s = build_disk_system(g)
            assert system_ply(s) == reference.brute_force_system_ply(s)

    def test_system_ply_at_least_center_ply(self, hub_small):
        s = build_disk_system(hub_small)
        assert system_ply(s) >= s.max_center_ply()


def assert_same_as_oracle(arr, want):
    """Vertex by vertex and ring by ring, ids and dict order included."""
    assert list(arr.vertices) == want.vertices
    assert list(arr.rings.items()) == list(want.rings.items())


def oracle_corpus():
    yield system_from([(0.0, 0.0), (1.0, 0.0), (0.5, 0.8), (5.0, 5.0)], [1.0, 1.0, 0.6, 0.5])
    yield system_from([(0.0, 0.0), (2.0, 0.0), (1.0, 0.0), (1.0, 0.5)], [1.0, 1.0, 0.0, 3.0])
    for seed in (0, 3, 8):
        yield build_disk_system(rg.gen_random_geometric(100, 0.14, seed=seed))
    for seed in (1, 2):
        yield build_disk_system(rg.gen_gotham(64, 8, seed=seed))
        yield build_disk_system(rg.gen_hub_spoke(64, 21, seed=seed))
        yield build_disk_system(rg.gen_random_geometric(2000, 1.5 / 2000**0.5, seed=seed))


class TestVertexTableMatchesOracles:
    def test_builders_and_faces(self):
        for s in oracle_corpus():
            clustering = clustering_check(s)
            naive, inductive = build_naive(s), build_inductive(s, clustering)
            assert_same_as_oracle(naive, reference.naive_arrangement(s))
            assert_same_as_oracle(inductive, reference.inductive_arrangement(s, clustering))
            assert naive.face_count() == reference.traced_face_count(naive)
            assert inductive.face_count() == naive.face_count()
            assert naive.component_count == inductive.component_count
            assert naive.euler_check() and inductive.euler_check()
            assert np.array_equal(naive.table.tangent, [v.tangent for v in naive.vertices])

    def test_depths_match_brute_force(self):
        for seed in (2, 7):
            s = build_disk_system(rg.gen_random_geometric(60, 0.2, seed=seed))
            arr = reference.naive_arrangement(s)
            pts = np.array([v.point for v in arr.vertices]).reshape(-1, 2)
            want = [int(np.sum(np.hypot(*(p - s.centers).T) <= s.radii)) for p in pts]
            t = build_naive(s).table
            assert covering_counts(s, np.column_stack([t.x, t.y])).tolist() == want

    def test_smaller_components_match_oracle(self):
        for s in oracle_corpus():
            owner, member, comp = s.smaller_components()
            got = [[] for _ in range(len(s))]
            for k in np.flatnonzero(comp == np.arange(len(comp))):
                got[owner[k]].append(sorted(member[comp == k].tolist()))
            assert got == reference.smaller_neighbor_component_lists(s)

    def test_vertex_view(self):
        arr = build_naive(system_from([(0.0, 0.0), (1.0, 0.0), (5.0, 0.0)], [1.0, 1.0, 1.0]))
        v = arr.vertices
        assert len(v) == 3 and v[-1] == v[2]
        assert v[2].circles == (2, -1) and v[2].point == (6.0, 0.0)
        assert all(type(c) is float for c in v[0].point)
        assert all(type(c) is int for c in v[0].circles)
        with pytest.raises(IndexError):
            v[3]
        # The view holds no public state: digests of an arrangement's public
        # fields must not recurse back into it.
        assert not {k for k in vars(v) if not k.startswith("_")}


class TestTangencies:
    # Unit circle at the origin and a partner touching it at each compass
    # point, from outside (radius 1) and from inside (radius 0.5).  At (0, 1)
    # from outside, the lower circle leaves the contact counterclockwise at
    # +pi and the upper one clockwise at -pi: one direction across the wrap.
    @pytest.mark.parametrize("dx, dy", [(1, 0), (0, 1), (-1, 0), (0, -1)])
    @pytest.mark.parametrize("r", [1.0, 0.5])
    def test_compass_tangency(self, dx, dy, r):
        # Both orders of the pair: the unit circle as circle i, then as j.
        d = 1.0 + r if r == 1.0 else 1.0 - r
        disks = [((0.0, 0.0), 1.0), ((d * dx, d * dy), r)]
        for first in disks, disks[::-1]:
            s = system_from([c for c, _ in first], [r for _, r in first])
            arr = build_naive(s)
            assert arr.vertices[0].point == (dx, dy)
            assert arr.vertex_count == 1 and arr.table.tangent.tolist() == [True]
            assert arr.face_count() == reference.traced_face_count(arr) == 3
            assert arr.euler_check()

    @pytest.mark.parametrize("order", list(itertools.permutations(range(3))))
    def test_internal_tangency_crossed_at_the_contact(self, order):
        # Radius 1 inside radius 4, touching at (4, 0), and a third circle
        # crossing both there.  A lone tangency cannot tell its rotation from
        # the mirror image; the crossings around it can.  Every order of the
        # circles puts the smaller one first or second.
        centers, radii = [(0.0, 0.0), (3.0, 0.0), (4.0, 0.0)], [4.0, 1.0, 0.5]
        s = system_from([centers[k] for k in order], [radii[k] for k in order])
        for arr in (build_naive(s), build_inductive(s, clustering_check(s))):
            assert arr.table.tangent.sum() == 1
            assert arr.face_count() == reference.traced_face_count(arr) == 7
            assert arr.euler_check()

    def test_flower_of_tangencies(self):
        centers = [(0.0, 0.0), (2.0, 0.0), (0.0, 2.0), (-2.0, 0.0), (0.0, -0.5)]
        s = system_from(centers, [1.0, 1.0, 1.0, 1.0, 0.5])
        for arr in (build_naive(s), build_inductive(s, clustering_check(s))):
            assert arr.face_count() == reference.traced_face_count(arr)
            assert arr.euler_check()


class TestRotation:
    def test_side_is_the_exact_orientation_of_the_point(self):
        # A crossing row's side is orient(c_i, c_j, p) of its float point.
        rows = 0
        for s in oracle_corpus():
            t = build_naive(s).table
            for k in np.flatnonzero(t.side != 0).tolist():
                ci, cj = s.centers[t.i[k]].tolist(), s.centers[t.j[k]].tolist()
                assert orient(*ci, *cj, float(t.x[k]), float(t.y[k])) == t.side[k]
                rows += 1
        assert rows > 30000

    def test_wide_system_keeps_euler(self):
        # Three mutually crossing circles of radius 4.4e8, one center 9e8
        # from the other two, whose centers are 0.06 apart: V = 6, E = 12.
        centers = [
            [306410579.2068602, 832794310.0020676],
            [0.06199234597118014, 0.018714338654071884],
            [0.004348134123765889, 0.008839224647221467],
        ]
        s = system_from(centers, [443687335.2385428, 443687335.22395664, 443687335.2385428])
        assert s.pairs.tolist() == [[0, 1], [0, 2], [1, 2]]
        for arr in (build_naive(s), build_inductive(s, clustering_check(s))):
            assert (arr.vertex_count, arr.edge_count) == (6, 12)
            assert arr.face_count() == 8
            assert arr.euler_check()


class TestDegeneracies:
    def builders(self, s):
        return (lambda: build_naive(s), lambda: build_inductive(s, clustering_check(s)))

    def test_duplicate_circles(self):
        s = system_from([(0.0, 0.0), (1.0, 0.0), (0.0, 0.0)], [1.0, 1.0, 1.0])
        for build in self.builders(s):
            with pytest.raises(DegeneracyError, match=r"duplicate circles \(0, 2\)"):
                build()

    def test_concurrent_points_on_a_circle(self):
        # Three circles touching at (1, 0): two vertices at one angle.
        s = system_from([(0.0, 0.0), (2.0, 0.0), (3.0, 0.0)], [1.0, 1.0, 2.0])
        for build in self.builders(s):
            with pytest.raises(DegeneracyError, match="concurrent intersection points on circle 0"):
                build()


class TestCirclePairPoints:
    def pairs(self):
        rng = np.random.default_rng(5)
        k = 4000
        q = rng.integers(-6, 7, size=(k, 4)).astype(np.float64) / rng.choice([1.0, 2.0, 3.0], size=(k, 1))
        r = rng.integers(0, 7, size=(k, 2)) / rng.choice([1.0, 2.0, 7.0], size=(k, 1))
        lattice = np.column_stack([q[:, 0], q[:, 1], r[:, 0], q[:, 2], q[:, 3], r[:, 1]])
        real = np.column_stack(
            [rng.normal(size=(k, 2)), rng.uniform(0.1, 2, k), rng.normal(size=(k, 2)), rng.uniform(0.1, 2, k)]
        )
        rows = np.vstack([lattice, real])
        same = (rows[:, 0] == rows[:, 3]) & (rows[:, 1] == rows[:, 4]) & (rows[:, 2] == rows[:, 5])
        return rows[~same]

    def test_matches_scalar_bit_for_bit(self):
        rows = self.pairs()
        row, x, y = circle_pair_points(*rows.T)
        want = [
            (k, p) for k, args in enumerate(rows) for p in reference.circle_circle_points(*args.tolist())
        ]
        assert row.tolist() == [k for k, _ in want]
        got = np.column_stack([x, y])
        expect = np.array([p for _, p in want], dtype=np.float64)
        assert got.tobytes() == expect.tobytes()
        assert 0 < np.count_nonzero(np.bincount(row) == 1) < len(set(row.tolist()))

    def test_identical_circles_name_the_first_row(self):
        rows = np.array([[0, 0, 1, 3, 0, 1], [1, 1, 2, 1, 1, 2], [0, 0, 1, 0, 0, 1]], dtype=np.float64)
        with pytest.raises(ValueError) as caught:
            circle_pair_points(*rows.T)
        assert caught.value.args == ("identical circles", 1)

    def test_numpy_facts_the_table_rests_on(self):
        # np.sqrt rounds as math.sqrt on the table's radicands, d^2 and h^2.
        rows = self.pairs()
        q1x, q1y, r1, q2x, q2y, r2 = rows.T
        d2 = (q2x - q1x) ** 2 + (q2y - q1y) ** 2
        keep = d2 > 0
        d2, r1, r2 = d2[keep], r1[keep], r2[keep]
        a = (d2 + r1 * r1 - r2 * r2) / (2.0 * np.sqrt(d2))
        for radicand in (d2, r1 * r1 - a * a):
            radicand = radicand[np.isfinite(radicand) & (radicand > 0)]
            assert np.sqrt(radicand).tolist() == [math.sqrt(v) for v in radicand.tolist()]
        # np.arctan2 does not round as math.atan2, so angles use math.atan2.
        y, x = np.random.default_rng(0).normal(size=(2, 20000))
        assert np.arctan2(y, x).tolist() != [math.atan2(a, b) for a, b in zip(y.tolist(), x.tolist())]
