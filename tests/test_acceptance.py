"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and reported constants.
"""

import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

import roadgeom as rg
from roadgeom import crossings as cr
from roadgeom.arrangement import build_inductive, build_naive, complexity_audit
from roadgeom.augment import DIRECTIONS, clustering_check, grid_augment
from roadgeom.disks import build_disk_system, charge_audit, ply_report
from roadgeom.routing import sssp, voronoi_direct, voronoi_via_tree
from roadgeom.separators import build_decomposition, find_separator

import oracles
import reference
from test_arrangement import assert_structurally_equal
from test_routing import random_weighted_graph
from test_separators import verify_separator_geometry

SEED = 20260808


def report(line):
    print(f"\n{line}")


def timed(budget, label):
    class _Timer:
        def __enter__(self):
            self.start = time.perf_counter()
            return self

        def __exit__(self, *exc):
            self.elapsed = time.perf_counter() - self.start
            if exc[0] is None:
                assert self.elapsed <= budget, (
                    f"{label} took {self.elapsed:.1f}s, budget {budget}s"
                )

    return _Timer()


def crossing_charge_holds(g, system, pair_set, record):
    near = []
    for e in (record.e1, record.e2):
        u, v = int(g.edge_u[e]), int(g.edge_v[e])
        du = (g.xy[u, 0] - record.point[0]) ** 2 + (g.xy[u, 1] - record.point[1]) ** 2
        dv = (g.xy[v, 0] - record.point[0]) ** 2 + (g.xy[v, 1] - record.point[1]) ** 2
        near.append(u if (du, u) <= (dv, v) else v)
    a, b = sorted(near)
    return a == b or (a, b) in pair_set


class TestCriterion1OracleEquivalences:
    def test_c1a_crossings_vs_all_pairs(self):
        with timed(5, "crossing oracle") as t:
            for g in (rg.gen_random_geometric(200, 0.11, seed=SEED), rg.gen_gotham(12, 3, seed=SEED)):
                got = {(r.e1, r.e2, r.kind) for r in cr.find_crossings(g)}
                want = {
                    (i, j, kind)
                    for (i, j), (kind, _) in oracles.all_pairs_crossings(g).items()
                }
                assert got == want
        report(f"[PASS] C1a crossings == all-pairs oracle (exact, {t.elapsed:.2f}s)")

    def test_c1b_disks_vs_all_pairs(self):
        with timed(5, "disk oracles") as t:
            for g in (rg.gen_random_geometric(200, 0.11, seed=SEED), rg.gen_hub_spoke(16, 9, seed=SEED)):
                s = build_disk_system(g)
                assert {(int(i), int(j)) for i, j in s.pairs} == oracles.all_pairs_disk_pairs(s)
                assert np.array_equal(s.center_ply(), reference.all_pairs_center_ply(s))
        report(f"[PASS] C1b disk pairs and center ply == all-pairs oracles (exact, {t.elapsed:.2f}s)")

    def test_c1c_shortcuts_vs_ray_oracle(self):
        with timed(5, "shortcut oracle") as t:
            for g in (rg.gen_gotham(16, 0, seed=SEED), rg.gen_gotham(14, 2, seed=SEED)):
                p = cr.planarize(g, cr.find_crossings(g))
                aug = grid_augment(p)
                got = {(o, DIRECTIONS[c]): tgt for o, tgt, c in aug.shortcuts.tolist()}
                assert got == reference.ray_shoot_all(g)
        report(f"[PASS] C1c grid shortcuts == ray-shoot oracle (exact, {t.elapsed:.2f}s)")

    def test_c1d_inductive_vs_naive_arrangement(self):
        with timed(5, "arrangement oracle") as t:
            for g in (
                rg.gen_random_geometric(100, 0.14, seed=SEED),
                rg.gen_random_geometric(90, 0.16, seed=SEED + 1),
            ):
                s = build_disk_system(g)
                a = build_inductive(s, clustering_check(s))
                b = build_naive(s)
                assert_structurally_equal(a, b, tol=1e-9)
        report(f"[PASS] C1d inductive arrangement == naive oracle (1e-9, {t.elapsed:.2f}s)")

    def test_c1e_voronoi_tree_vs_multi_source(self):
        with timed(5, "voronoi oracle") as t:
            rng = np.random.default_rng(SEED)
            for trial in range(50):
                n = int(rng.integers(20, 120))
                g = random_weighted_graph(n, n // 2, seed=SEED + trial)
                tree = build_decomposition(build_disk_system(g), leaf_threshold=8, seed=trial)
                k = int(rng.integers(1, 6))
                sites = sorted(int(s) for s in rng.choice(n, size=k, replace=False))
                via = voronoi_via_tree(g, tree, sites)
                direct = voronoi_direct(g, sites)
                assert np.array_equal(via.dist, direct.dist)
                assert np.array_equal(via.label, direct.label)
        report(f"[PASS] C1e voronoi_via_tree == multi-source oracle (exact, 50 runs, {t.elapsed:.2f}s)")

    def test_c1f_sssp_vs_bellman_ford(self):
        with timed(5, "sssp oracle") as t:
            rng = np.random.default_rng(SEED)
            for trial in range(50):
                n = int(rng.integers(20, 150))
                g = random_weighted_graph(n, n, seed=SEED + 1000 + trial)
                source = int(rng.integers(0, n))
                got = sssp(g, source)
                assert np.array_equal(got.dist, reference.bellman_ford(g, source))
        report(f"[PASS] C1f sssp == Bellman-Ford oracle (exact, 50 runs, {t.elapsed:.2f}s)")


def corpus():
    return [
        ("gotham-16x2", rg.gen_gotham(16, 2, seed=SEED)),
        ("gotham-12x3", rg.gen_gotham(12, 3, seed=SEED + 1)),
        ("rgg-150", rg.gen_random_geometric(150, 0.12, seed=SEED)),
        ("rgg-80", rg.gen_random_geometric(80, 0.16, seed=SEED + 1)),
        ("hubspoke-20", rg.gen_hub_spoke(20, 12, seed=SEED)),
        ("hubspoke-16", rg.gen_hub_spoke(16, 9, seed=SEED + 1)),
    ]


class TestCriterion2StructuralInvariants:
    def test_c2_structural_invariants(self):
        fitted = []
        for name, g in corpus():
            s = build_disk_system(g)
            pair_set = {(int(i), int(j)) for i, j in s.pairs}

            proper = cr.proper_only(cr.find_crossings(g))
            for record in proper:
                assert crossing_charge_holds(g, s, pair_set, record), (
                    f"{name}: crossing charge fails for {record}"
                )

            arr = build_naive(s)
            audit = complexity_audit(arr, s)  # raises if V > 2 * pairs
            assert arr.euler_check(), f"{name}: Euler relation fails"

            k_ply = reference.brute_force_system_ply(s)
            charges = charge_audit(s)
            assert charges.max_tall_charges <= 6 * k_ply, name
            assert charges.max_containment_charges <= k_ply, name
            assert len(s.pairs) <= 7 * k_ply * len(s), name
            # Plane ply vs center ply stay within a small factor (reported).
            center = int(s.center_ply().max())
            assert k_ply >= center
            fitted.append((name, len(s.pairs) / len(s), k_ply, k_ply / center))
        pairs_per_n = ", ".join(
            f"{n}: {c:.2f} (ply {k}, ply/center {r:.2f})" for n, c, k, r in fitted
        )
        report(
            "[PASS] C2 crossing-disk charge 100%, V <= 2*pairs, tall <= 6k, "
            f"Euler everywhere; pairs/n: {pairs_per_n}"
        )


class TestCriterion3SeparatorContract:
    def test_c3_separator_contract(self):
        budget_note = None
        for side in (32, 64, 128):
            n = side * side
            g = rg.gen_gotham(side, 0, seed=SEED)
            s = build_disk_system(g)
            start = time.perf_counter()
            retries = []
            for seed in range(100):
                sep = find_separator(s, delta=0.75, exceptional_k=4, seed=seed)
                assert sep.balance <= 0.75, f"n={n} seed={seed}"
                assert len(sep.cut) <= 4 * math.sqrt(n), f"n={n} seed={seed}: {len(sep.cut)}"
                retries.append(sep.retries)
            assert np.median(retries) <= 8

            tree = build_decomposition(s, delta=2 / 3, leaf_threshold=64, seed=SEED)
            pos_of = {int(v): i for i, v in enumerate(s.vertices)}
            worst_c = 0.0
            total_cut = 0
            for nd in tree.nodes:
                if nd.is_leaf:
                    assert nd.vertex_count <= 64
                    continue
                sep = nd.separator
                members = np.concatenate([sep.cut, sep.inside, sep.outside])
                assert nd.vertex_count == len(members)
                assert max(len(sep.inside), len(sep.outside)) <= (2 / 3) * nd.vertex_count
                # Grid systems are 2-ply; the configured cut constant is 4*sqrt(k).
                assert len(sep.cut) <= 4 * math.sqrt(2) * math.sqrt(nd.vertex_count)
                worst_c = max(worst_c, len(sep.cut) / math.sqrt(nd.vertex_count))
                total_cut += len(sep.cut)
                node_sys = s.subset([pos_of[v] for v in members])
                verify_separator_geometry(node_sys, sep)
            elapsed = time.perf_counter() - start
            if side == 128:
                assert elapsed <= 10, f"n=16384 runtime {elapsed:.1f}s over 10s budget"
                budget_note = (
                    f"n=16384 in {elapsed:.1f}s, worst cut constant {worst_c:.2f}, "
                    f"total cut mass {total_cut} = {total_cut / math.sqrt(n):.2f}*sqrt(n)"
                )
        report(f"[PASS] C3 separator contract on grids 1024/4096/16384 ({budget_note})")


class TestCriterion4SqrtScaling:
    def test_c4_crossing_scaling(self):
        with timed(60, "scaling study") as t:
            sides = (16, 32, 64, 128, 256)
            ns, counts = [], []
            for side in sides:
                g = rg.gen_gotham(side, 4, seed=SEED)
                proper = cr.proper_only(cr.find_crossings(g))
                ns.append(g.n)
                counts.append(len(proper))
            slope = float(np.polyfit(np.log(ns), np.log(counts), 1)[0])
            assert 0.4 <= slope <= 0.6, f"slope {slope:.3f} outside [0.4, 0.6]"

            # Same sweep with expressways growing as ceil(sqrt(side)),
            # reported for comparison (not asserted: chord count growth adds
            # ~n^0.25 on top of the sqrt(n) per-chord crossings).
            ns2, counts2 = [], []
            for side in sides:
                g = rg.gen_gotham(side, math.ceil(math.sqrt(side)), seed=SEED)
                ns2.append(g.n)
                counts2.append(len(cr.proper_only(cr.find_crossings(g))))
            slope2 = float(np.polyfit(np.log(ns2), np.log(counts2), 1)[0])
        report(
            f"[PASS] C4 log-log slope {slope:.3f} in [0.4, 0.6] "
            f"(constant expressways, counts {counts}, {t.elapsed:.1f}s; "
            f"ceil(sqrt(side)) expressways slope {slope2:.3f}, reported only)"
        )


class TestCriterion5PlyFigures:
    def test_c5_ply_contrast(self):
        rows = []
        for ring in (28, 36, 44):
            g = rg.gen_hub_spoke(ring, 21, seed=SEED)
            rep = ply_report(build_disk_system(g))
            assert rep.kth_largest_center_ply <= 10, (
                f"ring={ring}: sqrt-n-th ply {rep.kth_largest_center_ply} > 10"
            )
            assert rep.max_center_ply >= 2 * rep.kth_largest_center_ply, (
                f"ring={ring}: max {rep.max_center_ply} < 2x kth {rep.kth_largest_center_ply}"
            )
            rows.append((g.n, rep.max_center_ply, rep.kth_largest_center_ply))
        detail = ", ".join(f"n={n}: max {m} vs kth {k}" for n, m, k in rows)
        report(f"[PASS] C5 long-road families: max ply >= 2x sqrt-n-th ply, kth <= 10 ({detail})")


class TestCriterion6TigerData:
    def test_c6_tiger_states(self):
        data_dir = os.environ.get("ROADGEOM_TIGER_DIR")
        if not data_dir:
            pytest.skip("set ROADGEOM_TIGER_DIR to a directory of DIMACS .gr/.co state files")
        gr_files = sorted(Path(data_dir).glob("*.gr"))
        if not gr_files:
            pytest.skip(f"no .gr files under {data_dir}")
        lines = []
        for gr in gr_files:
            g = rg.load_dimacs(gr, gr.with_suffix(".co"))
            proper = cr.proper_only(cr.find_crossings(g))
            assert len(proper) > 0, f"{gr.name}: no proper crossings found"
            lines.append(f"{gr.stem}: {len(proper)}")
            if gr.stem.upper().startswith(("CAL", "CA")):
                assert 4500 <= len(proper) <= 7500, (
                    f"California crossings {len(proper)} outside 6000 +/- 25%"
                )
        report("[PASS] C6 TIGER states: " + "; ".join(lines))
