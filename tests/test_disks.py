import math
import re

import numpy as np
import pytest

import roadgeom as rg
from roadgeom import crossings as cr
from roadgeom.arrangement import system_ply
from roadgeom.augment import clustering_check
from roadgeom.disks import (
    DiskSystem,
    build_disk_system,
    charge_audit,
    check_crossing_charges,
    check_edges_are_pairs,
    covering_counts,
    exceptional_decomposition,
    ply_report,
)
from roadgeom.errors import InvariantViolation, ValidationError

import oracles
import reference
from test_acceptance import corpus, crossing_charge_holds


def system_from(centers, radii):
    centers = np.asarray(centers, dtype=np.float64)
    radii = np.asarray(radii, dtype=np.float64)
    pairs = sorted(oracles.all_pairs_disk_pairs(type("S", (), {"centers": centers, "radii": radii})))
    return DiskSystem(np.arange(len(radii)), centers, radii, np.asarray(pairs).reshape(-1, 2))


class TestBuildDiskSystem:
    def test_kissing_pair(self):
        g = rg.GeometricGraph.build([(0, 0), (2, 0)], [(0, 1, 1.0, 4)])
        s = build_disk_system(g)
        assert s.radii.tolist() == [1.0, 1.0]
        assert s.pairs.tolist() == [[0, 1]]

    def test_collinear_path(self):
        pts = [(float(i), 0.0) for i in range(6)]
        g = rg.GeometricGraph.build(pts, [(i, i + 1, 1.0, 4) for i in range(5)])
        s = build_disk_system(g)
        assert np.all(s.radii == 0.5)
        assert s.pairs.tolist() == [[i, i + 1] for i in range(5)]

    def test_isolated_vertex_radius_zero(self):
        g = rg.GeometricGraph.build([(0, 0), (5, 5), (1, 0)], [(0, 2, 1.0, 4)])
        s = build_disk_system(g)
        assert s.radii[1] == 0.0

    def test_pairs_match_oracle_random(self, rgg_medium):
        s = build_disk_system(rgg_medium)
        got = {(int(i), int(j)) for i, j in s.pairs}
        assert got == oracles.all_pairs_disk_pairs(s)

    def test_pairs_match_oracle_mixed_scales(self, hub_small):
        s = build_disk_system(hub_small)
        got = {(int(i), int(j)) for i, j in s.pairs}
        assert got == oracles.all_pairs_disk_pairs(s)

    def test_graph_edges_are_pairs(self, gotham_small, rgg_small, hub_small):
        for g in (gotham_small, rgg_small, hub_small):
            s = build_disk_system(g)
            got = {(int(i), int(j)) for i, j in s.pairs}
            for u, v in zip(g.edge_u.tolist(), g.edge_v.tolist()):
                assert (min(u, v), max(u, v)) in got

    def test_subset_filters_pairs(self, rgg_small):
        s = build_disk_system(rgg_small)
        keep = list(range(0, len(s), 2))
        sub = s.subset(keep)
        assert len(sub) == len(keep)
        want = {
            (keep.index(int(i)), keep.index(int(j)))
            for i, j in s.pairs
            if int(i) in keep and int(j) in keep
        }
        assert {(int(i), int(j)) for i, j in sub.pairs} == want


    @pytest.mark.parametrize(
        "centers, radii",
        [
            ([[0, 0], [1, 0]], [math.nan, 1.0]),
            ([[0, 0], [1, 0]], [1.0, math.inf]),
            ([[0, math.inf], [1, 0]], [1.0, 1.0]),
            ([[math.nan, 0], [1, 0]], [1.0, 1.0]),
        ],
    )
    def test_non_finite_input_is_rejected(self, centers, radii):
        with pytest.raises(ValidationError, match="non-finite"):
            DiskSystem([0, 1], centers, radii, [[0, 1]])

    @pytest.mark.parametrize(
        "pairs",
        [[[0, 5]], [[-1, 0]], [[1, 0]], [[1, 1]], [[0, 1], [0, 2]], [[0, 1], [1, -1]]],
    )
    def test_bad_pair_rows_are_rejected(self, pairs):
        # Unchecked, such rows fail later in center_ply or bincount with
        # unnamed errors, or make _missing_pairs miss a listed reversed pair.
        with pytest.raises(ValidationError, match=re.escape(f"pair row {pairs[-1]} ")):
            DiskSystem([0, 1], [[0, 0], [1, 0]], [1, 1], pairs)

    @pytest.mark.parametrize(
        "vertices, centers, radii, pairs, match",
        [
            ([0, 1], [[0, 0], [1, 0], [5, 5]], [1, 1], [[0, 1]], "differ in positions"),
            ([0, 1], [[0, 0]], [1, 1], [[0, 1]], "differ in positions"),
            ([0], [[0, 0], [1, 0]], [1, 1], [[0, 1]], "differ in positions"),
            ([0, 1], [[0, 0], [1, 0]], 1.0, [[0, 1]], "differ in positions"),
            ([0, 1], [0.0, 0.0, 1.0], [1, 1], [[0, 1]], "centers must be rows of two columns"),
            ([0, 1], [[0, 0, 0], [1, 0, 0]], [1, 1], [[0, 1]], "centers must be rows of two columns"),
            ([0, 1], [[0, 0], [1, 0]], [1, 1], [[0, 1, 1]], "pairs must be rows of two columns"),
        ],
    )
    def test_malformed_arrays_are_rejected(self, vertices, centers, radii, pairs, match):
        # Unchecked, these dropped a center silently or failed later in
        # center_ply, subset or numpy's reshape with unnamed errors.
        with pytest.raises(ValidationError, match=match):
            DiskSystem(vertices, centers, radii, pairs)


class TestPly:
    def test_unit_path(self):
        pts = [(float(i), 0.0) for i in range(5)]
        g = rg.GeometricGraph.build(pts, [(i, i + 1, 1.0, 4) for i in range(4)])
        rep = ply_report(build_disk_system(g))
        assert rep.max_center_ply == 1
        assert np.all(rep.center_ply == 1)

    def test_star_hub_covers_leaves(self):
        # Hub at origin with a length-10 edge fixes the hub radius at 5;
        # five leaves at distance 1 are all covered by the hub disk.
        pts = [(0.0, 0.0), (10.0, 0.0)]
        edges = [(0, 1, 10.0, 4)]
        for k in range(5):
            ang = 2 * math.pi * k / 5
            pts.append((math.cos(ang), math.sin(ang)))
            edges.append((0, 2 + k, 1.0, 4))
        g = rg.GeometricGraph.build(pts, edges)
        rep = ply_report(build_disk_system(g))
        for leaf in range(2, 7):
            assert rep.center_ply[leaf] >= 2

    def test_center_ply_matches_oracle(self, rgg_medium):
        s = build_disk_system(rgg_medium)
        assert np.array_equal(s.center_ply(), reference.all_pairs_center_ply(s))

    def test_kth_largest(self):
        g = rg.gen_hub_spoke(16, 9, seed=3)
        s = build_disk_system(g)
        rep = ply_report(s)
        k = int(math.isqrt(len(s)))
        assert rep.kth_largest_center_ply == int(np.sort(s.center_ply())[::-1][k - 1])
        assert rep.kth_largest_center_ply <= rep.max_center_ply
        assert rep.max_disk_degree == int(s.degrees().max())


class TestExceptional:
    def test_already_low_ply(self):
        g = rg.gen_gotham(8, 0, seed=0)
        s = build_disk_system(g)
        split = exceptional_decomposition(s, k=2)
        assert len(split.removed) == 0
        assert split.residual_max_center_ply <= 2

    def test_single_offender(self):
        # A giant disk over a unit grid of ply-1 disks: removing just the
        # giant restores the target ply.
        pts = [(float(i), float(j)) for i in range(7) for j in range(7)]
        centers = pts + [(3.0, 3.0)]
        radii = [0.5] * len(pts) + [50.0]
        s = system_from(centers, radii)
        split = exceptional_decomposition(s, k=1)
        assert split.removed.tolist() == [len(pts)]
        assert split.residual_max_center_ply <= 1
        assert split.within_sqrt_budget

    def test_residual_recheck(self):
        g = rg.gen_hub_spoke(20, 12, seed=6)
        s = build_disk_system(g)
        split = exceptional_decomposition(s, k=3)
        removed = set(split.removed)
        keep = [i for i in range(len(s)) if int(s.vertices[i]) not in removed]
        residual = s.subset(keep)
        recheck = reference.all_pairs_center_ply(residual)
        assert int(recheck.max()) == split.residual_max_center_ply
        assert recheck.max() <= 3


class TestChargeAudit:
    def test_kissing_pair(self):
        s = system_from([(0.0, 0.0), (2.0, 0.0)], [1.0, 1.0])
        audit = charge_audit(s)
        assert audit.max_containment_charges == 0
        assert audit.tall.tolist() == [1, 0]  # tie broken by index

    def test_hexagon_neighbors(self):
        # Six unit disks around a half-radius center disk: all six charges
        # land on the small disk and stay within 6 * (brute-force ply).
        centers = [(0.0, 0.0)]
        radii = [0.5]
        for k in range(6):
            ang = math.pi * k / 3
            centers.append((1.4 * math.cos(ang), 1.4 * math.sin(ang)))
            radii.append(1.0)
        s = system_from(centers, radii)
        audit = charge_audit(s)
        k_ply = reference.brute_force_system_ply(s)
        assert audit.tall[0] == 6
        assert audit.max_tall_charges <= 6 * k_ply

    def test_tall_bound_random(self):
        for seed in (1, 5, 9):
            g = rg.gen_random_geometric(100, 0.18, seed=seed)
            s = build_disk_system(g)
            k_ply = reference.brute_force_system_ply(s)
            audit = charge_audit(s)
            assert audit.max_tall_charges <= 6 * k_ply
            assert audit.max_containment_charges <= k_ply
            assert len(s.pairs) <= 7 * k_ply * len(s)

    def test_charges_account_for_every_pair(self, rgg_small):
        s = build_disk_system(rgg_small)
        audit = charge_audit(s)
        assert audit.containment.sum() + audit.tall.sum() == len(s.pairs)


def test_reports_with_array_fields_compare_by_identity():
    # The default dataclass == compares the array fields and raises.
    g = rg.gen_gotham(12, 2, seed=2)
    a, b = build_disk_system(g), build_disk_system(g)
    for report in (charge_audit, ply_report):
        first, second = report(a), report(b)
        assert first == first
        assert not first == second
        assert first != second


class TestCovering:
    def test_counts_match_brute_force(self, hub_small):
        s = build_disk_system(hub_small)
        rng = np.random.default_rng(0)
        pts = rng.uniform(-2, 18, size=(50, 2))
        got = covering_counts(s, pts)
        want = np.zeros(len(pts), dtype=np.int64)
        for i in range(len(s)):
            d = np.hypot(pts[:, 0] - s.centers[i, 0], pts[:, 1] - s.centers[i, 1])
            want += d <= s.radii[i]
        assert np.array_equal(got, want)

    def test_zero_radius_covers_only_itself(self):
        s = system_from([(0.0, 0.0), (1.0, 0.0)], [0.0, 0.0])
        counts = covering_counts(s, [(0.0, 0.0), (0.5, 0.0)])
        assert counts.tolist() == [1, 0]


def degenerate_graph():
    """A hub-and-spoke graph plus a vertex on another's coordinates with an
    edge, isolated (zero-radius) vertices on existing centers, and pairs of
    coincident zero-radius centers (one pair joined by a zero-length edge)."""
    g = rg.gen_hub_spoke(16, 9, seed=2)
    n = g.n
    extra = [g.xy[0], g.xy[0], g.xy[5], (40.0, 40.0), (40.0, 40.0), (3.25, 3.25), (3.25, 3.25)]
    return rg.GeometricGraph(
        np.vstack([g.xy, extra]),
        np.concatenate([g.edge_u, [n, n + 5]]),
        np.concatenate([g.edge_v, [7, n + 6]]),
        np.concatenate([g.edge_weight, [1.0, 0.0]]),
        np.concatenate([g.edge_level, [4, 4]]),
    )


@pytest.fixture(params=["gotham_small", "rgg_medium", "hub_small", "degenerate"])
def system(request):
    if request.param == "degenerate":
        return build_disk_system(degenerate_graph())
    return build_disk_system(request.getfixturevalue(request.param))


class TestPairIndexDerived:
    """Quantities read off the pair index equal the O(n^2) oracles."""

    def test_pairs_and_center_ply(self, system):
        assert {(int(i), int(j)) for i, j in system.pairs} == oracles.all_pairs_disk_pairs(system)
        assert np.array_equal(system.center_ply(), reference.all_pairs_center_ply(system))

    def test_covering_counts(self, system):
        rng = np.random.default_rng(1)
        lo, hi = system.centers.min(axis=0) - 1, system.centers.max(axis=0) + 1
        pts = np.vstack([system.centers, rng.uniform(lo, hi, size=(300, 2)), system.centers + 0.5])
        want = np.zeros(len(pts), dtype=np.int64)
        for c, r in zip(system.centers, system.radii):
            want += np.hypot(pts[:, 0] - c[0], pts[:, 1] - c[1]) <= r
        assert np.array_equal(covering_counts(system, pts), want)

    def test_clustering_counts(self, system):
        rep = clustering_check(system)
        assert rep.component_counts.tolist() == reference.smaller_neighbor_component_counts(system)

    def test_exceptional_removals(self, system):
        for k in (1, 2, 3):
            split = exceptional_decomposition(system, k)
            removed, residual = reference.greedy_exceptional(system, k)
            assert split.removed.tolist() == list(removed)
            assert split.residual_max_center_ply == residual


class TestDerivedRelations:
    """The (radius, position) order and the center-cover flags that every
    reader of a DiskSystem shares."""

    def test_radius_order_matches_oracle_keys(self):
        radii = [1.0, 0.0, 2.0, -0.0, 1.0, 0.0, 0.5, -0.0, 2.0, 1.0]
        s = DiskSystem(np.arange(10), np.zeros((10, 2)), radii, np.empty((0, 2), int))
        order, rank = s.radius_order()
        key = [(float(r), p) for p, r in enumerate(s.radii)]
        assert order.tolist() == sorted(range(10), key=key.__getitem__)
        assert np.array_equal(rank[order], np.arange(10))
        for i in range(10):
            for j in range(10):
                assert (rank[i] < rank[j]) == (key[i] < key[j])
        assert not order.flags.writeable and not rank.flags.writeable

    def test_center_cover_matches_fresh_hypot(self, system):
        flags = system.center_cover()
        c, r = system.centers, system.radii
        i, j = system.pairs[:, 0], system.pairs[:, 1]
        for a, b in ((i, j), (j, i)):
            d = np.hypot(c[a, 0] - c[b, 0], c[a, 1] - c[b, 1])
            assert np.array_equal(flags, np.column_stack([d <= r[j], d <= r[i]]))
        assert flags.shape == (len(system.pairs), 2) and not flags.flags.writeable

    def test_system_ply_at_a_center(self):
        # Three concentric disks have no crossing point; their common center
        # is the deepest point, above the depth-2 crossings of the far pair.
        s = system_from(
            [(0.0, 0.0), (0.0, 0.0), (0.0, 0.0), (10.0, 0.0), (11.0, 0.0)],
            [1.0, 2.0, 3.0, 1.0, 1.0],
        )
        assert system_ply(s) == reference.brute_force_system_ply(s) == 3
        assert s.max_center_ply() == 3


class TestPairChecks:
    """The vectorized checks against the per-record reference of C2."""

    def test_corpus_passes(self):
        for name, g in corpus():
            s = build_disk_system(g)
            proper = cr.proper_only(cr.find_crossings(g))
            pair_set = {(int(i), int(j)) for i, j in s.pairs}
            assert all(crossing_charge_holds(g, s, pair_set, r) for r in proper), name
            check_crossing_charges(g, s, proper)
            check_edges_are_pairs(g, s)

    def test_planted_violations(self):
        rng = np.random.default_rng(4)
        planted = 0
        for name, g in corpus():
            s = build_disk_system(g)
            proper = cr.proper_only(cr.find_crossings(g))
            crossing_pairs = sorted(
                {
                    (min(a, b), max(a, b))
                    for r in proper
                    for a in (int(g.edge_u[r.e1]), int(g.edge_v[r.e1]))
                    for b in (int(g.edge_u[r.e2]), int(g.edge_v[r.e2]))
                    if a != b
                }
            )
            edge_pairs = list(zip(g.edge_u.tolist(), g.edge_v.tolist()))
            picks = [crossing_pairs[i] for i in rng.permutation(len(crossing_pairs))[:6]]
            picks += [edge_pairs[i] for i in rng.permutation(len(edge_pairs))[:3]]
            for drop in picks:
                keep = [p for p in map(tuple, s.pairs.tolist()) if p != drop]
                broken = DiskSystem(s.vertices, s.centers, s.radii, np.asarray(keep).reshape(-1, 2))
                pair_set = set(keep)
                failing = [r for r in proper if not crossing_charge_holds(g, broken, pair_set, r)]
                if failing:
                    planted += 1
                    r = failing[0]
                    with pytest.raises(InvariantViolation, match=re.escape(f"crossing ({r.e1}, {r.e2}) ")):
                        check_crossing_charges(g, broken, proper)
                else:
                    check_crossing_charges(g, broken, proper)
                missing = [e for e in edge_pairs if e not in pair_set]
                if missing:
                    with pytest.raises(InvariantViolation, match=re.escape(f"edge {missing[0]} missing")):
                        check_edges_are_pairs(g, broken)
                else:
                    check_edges_are_pairs(g, broken)
        assert planted >= 5
