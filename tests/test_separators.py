import dataclasses
import math

import numpy as np
import pytest

import reference
import roadgeom as rg
from roadgeom import disks, separators
from roadgeom.disks import DiskSystem, ExceptionalSplit, build_disk_system
from roadgeom.errors import ConfigError, SeparatorFailure, ValidationError
from roadgeom.separators import build_decomposition, find_separator


def verify_separator_geometry(system, sep):
    """Direct geometric re-check of the partition and containment claims."""
    pos_of = {int(v): i for i, v in enumerate(system.vertices)}
    cut, inside, outside = set(sep.cut), set(sep.inside), set(sep.outside)
    assert cut | inside | outside == {int(v) for v in system.vertices}
    assert not (cut & inside) and not (cut & outside) and not (inside & outside)
    assert set(sep.exceptional) <= cut
    cx, cy = sep.center
    for v in inside:
        i = pos_of[v]
        d = math.hypot(system.centers[i, 0] - cx, system.centers[i, 1] - cy)
        assert d + system.radii[i] < sep.radius
    for v in outside:
        i = pos_of[v]
        d = math.hypot(system.centers[i, 0] - cx, system.centers[i, 1] - cy)
        assert d - system.radii[i] > sep.radius
    for v in cut - set(sep.exceptional):
        i = pos_of[v]
        d = math.hypot(system.centers[i, 0] - cx, system.centers[i, 1] - cy)
        assert d + system.radii[i] >= sep.radius >= d - system.radii[i]


def check_grid_tree(s, tree, delta, leaf):
    """Depth, labelling, balance, cut size and geometry of a tree on a grid
    of tangent disks (center ply 2)."""
    n = len(s)
    bound = math.ceil(math.log(n / leaf) / math.log(1 / delta)) + 2
    assert tree.depth() <= bound

    # Every vertex labeled exactly once, at a cut or leaf node.
    assert np.all(tree.label >= 0)
    counts = np.zeros(n, dtype=int)
    for nd in tree.nodes:
        members = nd.leaf_vertices if nd.is_leaf else nd.separator.cut
        for v in members:
            counts[v] += 1
    assert np.all(counts == 1)

    # k=2 covers the tangent grid disks; cut <= 4*sqrt(k)*sqrt(node n).
    k_ply = 2
    pos_of = {int(v): i for i, v in enumerate(s.vertices)}
    for nd in tree.nodes:
        if nd.is_leaf:
            assert nd.vertex_count <= leaf
            continue
        sep = nd.separator
        assert nd.vertex_count == len(sep.cut) + len(sep.inside) + len(sep.outside)
        assert max(len(sep.inside), len(sep.outside)) <= delta * nd.vertex_count
        assert len(sep.cut) <= 4 * math.sqrt(k_ply) * math.sqrt(nd.vertex_count)
        for child, members in (
            (nd.interior, sep.inside),
            (nd.exterior, sep.outside),
        ):
            if child is not None:
                assert tree.nodes[child].vertex_count == len(members)
                assert tree.nodes[child].vertex_count <= delta * nd.vertex_count
        node_sys = s.subset([pos_of[v] for v in np.concatenate([sep.cut, sep.inside, sep.outside])])
        verify_separator_geometry(node_sys, sep)


class TestFindSeparator:
    def test_two_distant_disks(self):
        s = DiskSystem(
            [0, 1], [(0.0, 0.0), (100.0, 0.0)], [1.0, 1.0], np.empty((0, 2), int)
        )
        sep = find_separator(s, delta=0.75, exceptional_k=4, seed=0)
        assert len(sep.cut) == 0
        assert len(sep.inside) == 1 and len(sep.outside) == 1
        verify_separator_geometry(s, sep)

    def test_grid_32(self):
        s = build_disk_system(rg.gen_gotham(32, 0, seed=1))
        sep = find_separator(s, delta=0.75, exceptional_k=4, seed=9)
        assert sep.balance <= 0.75
        assert len(sep.cut) <= 4 * math.sqrt(1024)
        verify_separator_geometry(s, sep)

    def test_concentric_adversarial(self):
        n, k = 40, 4
        radii = np.linspace(1.0, 40.0, n)
        centers = np.zeros((n, 2))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        s = DiskSystem(np.arange(n), centers, radii, np.asarray(pairs))
        sep = find_separator(s, delta=0.75, exceptional_k=k, seed=2)
        # The greedy exceptional set absorbs all but <= k of the disks.
        assert len(sep.exceptional) >= n - k
        verify_separator_geometry(s, sep)

    def test_preconditions(self):
        s = DiskSystem([0], [(0.0, 0.0)], [1.0], np.empty((0, 2), int))
        with pytest.raises(ValidationError):
            find_separator(s, seed=0)
        s2 = DiskSystem(
            [0, 1], [(0.0, 0.0), (3.0, 0.0)], [1.0, 1.0], np.empty((0, 2), int)
        )
        with pytest.raises(ConfigError):
            find_separator(s2, delta=1.5, seed=0)

    def test_determinism(self):
        s = build_disk_system(rg.gen_random_geometric(150, 0.12, seed=5))
        a = find_separator(s, seed=33)
        b = find_separator(s, seed=33)
        _same(a, b)

    def test_failure_carries_best_candidate(self, monkeypatch):
        from roadgeom.errors import SeparatorFailure

        s = build_disk_system(rg.gen_random_geometric(50, 0.2, seed=1))
        monkeypatch.setattr(separators, "_PER_ROUND", 0)
        monkeypatch.setattr(separators, "_MAX_RETRIES", 2)
        with pytest.raises(SeparatorFailure) as exc:
            find_separator(s, seed=0)
        assert exc.value.best_candidate is None

    def test_all_cut_is_a_valid_outcome(self):
        # Identical centers defeat the stereographic search, but a circle
        # through the common annulus cuts every disk, which is balanced.
        n = 10
        radii = np.linspace(1.0, 5.0, n)
        pairs = np.asarray([(i, j) for i in range(n) for j in range(i + 1, n)])
        s = DiskSystem(np.arange(n), np.zeros((n, 2)), radii, pairs)
        sep = find_separator(s, delta=0.75, exceptional_k=20, seed=0)
        assert len(sep.cut) == n
        verify_separator_geometry(s, sep)


class TestDecomposition:
    def test_single_leaf(self):
        s = build_disk_system(rg.gen_gotham(3, 0, seed=0))
        tree = build_decomposition(s, leaf_threshold=16, seed=0)
        assert len(tree) == 1
        assert tree.root.is_leaf
        assert set(tree.root.leaf_vertices) == set(range(9))

    def test_grid_64_invariants(self):
        s = build_disk_system(rg.gen_gotham(64, 0, seed=1))
        check_grid_tree(s, build_decomposition(s, seed=7), 2.0 / 3.0, 32)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_grid_64_invariants_over_seeds(self, seed):
        # No chords: cocircular centers lift to coplanar points, the flat
        # case of the Radon step.
        s = build_disk_system(rg.gen_gotham(64, 0, seed=seed))
        check_grid_tree(s, build_decomposition(s, seed=seed), 2.0 / 3.0, 32)

    def test_determinism(self):
        s = build_disk_system(rg.gen_gotham(24, 2, seed=3))
        t1 = build_decomposition(s, leaf_threshold=16, seed=11)
        t2 = build_decomposition(s, leaf_threshold=16, seed=11)
        assert len(t1) == len(t2)
        assert np.array_equal(t1.label, t2.label)
        _same_tree(t1, t2)

    def test_leaf_threshold_validation(self):
        s = build_disk_system(rg.gen_gotham(4, 0, seed=0))
        with pytest.raises(ConfigError):
            build_decomposition(s, leaf_threshold=1, seed=0)

    def test_delta_validated_before_any_split(self):
        # 16 disks fit under the leaf threshold, so no separator is searched.
        s = build_disk_system(rg.gen_gotham(4, 0, seed=0))
        for delta in (5.0, 0.9, 0.6, float("nan")):
            with pytest.raises(ConfigError, match=r"delta must be in \[2/3, 3/4\]"):
                build_decomposition(s, delta=delta, seed=0)
        for delta in (2.0 / 3.0, 0.7, 0.75):
            assert build_decomposition(s, delta=delta, seed=0).delta == delta

    def test_random_geometric_tree(self):
        g = rg.gen_random_geometric(300, 0.08, seed=2)
        s = build_disk_system(g)
        tree = build_decomposition(s, leaf_threshold=24, seed=4)
        assert np.all(tree.label >= 0)
        for nd in tree.nodes:
            if not nd.is_leaf:
                sep = nd.separator
                assert max(len(sep.inside), len(sep.outside)) <= (2 / 3) * nd.vertex_count


def _outcome(find, system, **kw):
    """The separator, or the best candidate carried by the failure."""
    try:
        return "separator", find(system, **kw)
    except SeparatorFailure as exc:
        return "failure", exc.best_candidate


def _both_ways(
    system, candidates_per_round=separators._PER_ROUND, max_retries=separators._MAX_RETRIES, **kw
):
    """find_separator with the round constants set to the given values
    against the scalar oracle given the same."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(separators, "_PER_ROUND", candidates_per_round)
        mp.setattr(separators, "_MAX_RETRIES", max_retries)
        got = _outcome(find_separator, system, **kw)
    want = _outcome(
        reference.scalar_find_separator, system,
        candidates_per_round=candidates_per_round, max_retries=max_retries, **kw,
    )
    _same(got, want)
    return got


def _tetra_clusters():
    """Four tight clusters of five disks whose lifts sit near a tetrahedron:
    a random great circle often splits them 15 / 5, unbalanced at 2/3."""
    rng = np.random.default_rng(0)
    anchors = np.array([(0.0, 0.0), (1.0, 0.0), (-0.5, 3**0.5 / 2), (-0.5, -(3**0.5) / 2)])
    centers = np.repeat(anchors, 5, axis=0) + rng.uniform(-1e-4, 1e-4, (20, 2))
    pairs = [(i, j) for i in range(20) for j in range(i + 1, 20) if i // 5 == j // 5]
    return DiskSystem(np.arange(20), centers, np.full(20, 1e-3), np.asarray(pairs))


def _concentric(n=10):
    radii = np.linspace(1.0, 5.0, n)
    pairs = np.asarray([(i, j) for i in range(n) for j in range(i + 1, n)])
    return DiskSystem(np.arange(n), np.zeros((n, 2)), radii, pairs)


class _PlantedNormals:
    """A Generator whose normal draws are replaced at the given 3-vector
    positions of the stream, however they are batched."""

    def __init__(self, seed, planted, default_rng):
        self._rng = default_rng(seed)
        self._planted = planted
        self._drawn = 0

    def __getattr__(self, name):
        return getattr(self._rng, name)

    def normal(self, size=None):
        out = self._rng.normal(size=size)
        rows = out.reshape(-1, 3)
        for j in range(len(rows)):
            if self._drawn + j in self._planted:
                rows[j] = self._planted[self._drawn + j]
        self._drawn += len(rows)
        return out


class TestBatchedRoundMatchesScalar:
    """find_separator builds and scores a round's circles as arrays; it must
    equal the one-circle-at-a-time oracle exactly, failures included."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: rg.gen_gotham(24, 3, seed=5),
            lambda: rg.gen_hub_spoke(16, 9, seed=2),
            lambda: rg.gen_random_geometric(400, 0.07, seed=3),
        ],
        ids=["gotham", "hubspoke", "rgg"],
    )
    def test_families_over_seeds(self, make):
        system = build_disk_system(make())
        for seed in range(6):
            for k in (2, 8):
                assert _both_ways(system, seed=seed, exceptional_k=k)[0] == "separator"

    def test_no_candidates(self):
        system = build_disk_system(rg.gen_random_geometric(50, 0.2, seed=1))
        got = _both_ways(system, seed=0, candidates_per_round=0, max_retries=2)
        assert got == ("failure", None)

    def test_failures_carry_the_same_best_candidate(self):
        # Seeds 9, 11, 15, ... fail over two one-circle rounds whose sides
        # tie: the first round's circle must be kept.
        system = _tetra_clusters()
        kinds = set()
        for seed in range(20):
            for per_round, retries in ((1, 0), (1, 1), (2, 1)):
                kind, sep = _both_ways(
                    system, delta=2 / 3, seed=seed, exceptional_k=5,
                    candidates_per_round=per_round, max_retries=retries,
                )
                kinds.add((kind, sep is None, per_round, retries))
        assert ("failure", False, 1, 1) in kinds and ("separator", False, 1, 1) in kinds

    def test_singleton_path(self):
        for n in (2, 5, 8):
            for dx in (3.0, 2.0):  # apart, and a chain of tangent disks
                s = DiskSystem(
                    np.arange(n),
                    np.column_stack([np.arange(n) * dx, (np.arange(n) % 2) * (dx - 2.0)]),
                    np.full(n, 1.0),
                    np.empty((0, 2), int),
                )
                qx, qy, r = separators._singleton_candidates(s.centers, s.radii)
                want = reference._scalar_singleton_candidates(s)
                assert [((x, y), rr) for x, y, rr in zip(qx, qy, r)] == want
                for seed in range(4):
                    _both_ways(s, seed=seed)
                    _both_ways(s, seed=seed, candidates_per_round=0)

    def test_all_exceptional(self, monkeypatch):
        def everything(system, k):
            return ExceptionalSplit(system.vertices, 0, 0, False)

        monkeypatch.setattr(separators, "exceptional_decomposition", everything)
        monkeypatch.setattr(disks, "exceptional_decomposition", everything)
        kind, sep = _both_ways(build_disk_system(rg.gen_gotham(6, 0, seed=1)), seed=3)
        assert kind == "separator" and len(sep.exceptional) == len(sep.cut) == 36

    # The scalar oracle divides 0 / 0 for the circle through the pole.
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_skipped_candidates(self, monkeypatch):
        # Planted normals: zero, too short, a great circle through the pole,
        # one that maps to a line (the pole's image for an unmoved lift), one
        # that nearly does; then random ones.
        planted = [
            (0, 0, 0),
            (3e-13, 4e-13, 1e-13),
            (1, 0, 0),
            (0.6, 0.8, 0),
            (0.6, 0.8, 1e-13),
            (0.3, -0.2, 0.9),
        ]
        u = np.vstack([planted, np.random.default_rng(4).normal(size=(200, 3))])
        rot = separators._rotation_to_south(np.array([0.3, -0.5, 0.2]))
        for args in ((1.0, np.eye(3), 1.0, np.zeros(2)), (3.7, rot, 2.5, np.array([1.0, -2.0]))):
            qx, qy, r, _ = separators._great_circle_images(u, *args)
            want = [reference.scalar_great_circle(row, *args) for row in u]
            want = [c for c in want if c is not None]
            assert len(want) < len(u)
            assert [((x, y), rr) for x, y, rr in zip(qx, qy, r)] == want

        real = np.random.default_rng
        rows = {0: (0, 0, 0), 1: (1, 0, 0), 2: (0.6, 0.8, 0), 5: (0.6, -0.8, 0), 13: (0, 0, 0)}
        monkeypatch.setattr(
            np.random, "default_rng", lambda seed: _PlantedNormals(seed, rows, real)
        )
        kept = []
        images = separators._great_circle_images

        def spy(u, *args):
            out = images(u, *args)
            kept.append((len(u), len(out[0])))
            return out

        monkeypatch.setattr(separators, "_great_circle_images", spy)
        # Concentric disks leave the lift unmoved, so rows 2 and 5 are lines.
        gotham = build_disk_system(rg.gen_gotham(16, 2, seed=3))
        for system, dropped in ((_concentric(), 4), (gotham, 2)):
            kept.clear()
            _both_ways(system, exceptional_k=20, seed=0)
            assert kept[0] == (12, 12 - dropped)

    def test_tree_with_oracle_patched_in(self):
        system = build_disk_system(rg.gen_gotham(64, 8, seed=1))
        got = build_decomposition(system, seed=1)
        want = reference.recursive_decomposition(system, seed=1, find=reference.scalar_find_separator)
        _same_tree(got, want)


def _same(a, b):
    """a equals b: dataclasses (tree nodes, separators) field by field,
    tuples item by item, arrays by value and dtype, the rest by ``==``."""
    assert type(a) is type(b)
    if isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    elif dataclasses.is_dataclass(a):
        for f in dataclasses.fields(a):
            _same(getattr(a, f.name), getattr(b, f.name))
    elif isinstance(a, tuple):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            _same(x, y)
    else:
        assert a == b


def _same_tree(got, want):
    assert len(got) == len(want)
    for a, b in zip(got.nodes, want.nodes):
        _same(a, b)
    _same(got.label, want.label)


class TestLevelPassMatchesRecursion:
    """build_decomposition splits a whole depth per pass; it must build the
    node-by-node recursion's tree exactly, and fail where it fails."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda seed: rg.gen_gotham(64, 8, seed=seed),
            lambda seed: rg.gen_random_geometric(8192, 1.5 / 8192**0.5, seed=seed),
            lambda seed: rg.gen_hub_spoke(64, 21, seed=seed),
        ],
        ids=["gotham", "rgg", "hubspoke"],
    )
    @pytest.mark.parametrize("seed", [1, 2])
    def test_workload_graphs(self, make, seed):
        system = build_disk_system(make(seed))
        got = build_decomposition(system, seed=seed)
        _same_tree(got, reference.recursive_decomposition(system, seed=seed))

    def test_gotham_65k(self):
        system = build_disk_system(rg.gen_gotham(256, 8, seed=1))
        got = build_decomposition(system, seed=1)
        _same_tree(got, reference.recursive_decomposition(system, seed=1))

    def test_retry_rounds(self, monkeypatch):
        # With one circle per round some nodes need several rounds, while
        # the rest of their depth is done after the first.
        monkeypatch.setattr(separators, "_PER_ROUND", 1)
        for make, leaf, k in (
            (lambda: rg.gen_gotham(32, 0, seed=3), 16, 8),
            (lambda: rg.gen_random_geometric(1500, 0.05, seed=1), 4, 2),
        ):
            system = build_disk_system(make())
            got = build_decomposition(system, leaf_threshold=leaf, seed=4, exceptional_k=k)
            want = reference.recursive_decomposition(system, leaf_threshold=leaf, seed=4, exceptional_k=k)
            _same_tree(got, want)
            assert sum(nd.separator.retries > 0 for nd in got.internal_nodes()) >= 2

    def test_only_the_root_has_disks_above_the_exceptional_ply(self):
        # build_decomposition runs the greedy split on the root alone: every
        # deeper node is a subset of a residual the split left at ply <= k.
        for make in (lambda: rg.gen_gotham(32, 6, seed=1), lambda: rg.gen_hub_spoke(16, 9, seed=2)):
            system = build_disk_system(make())
            for k in (1, 2, 8):
                tree = build_decomposition(system, leaf_threshold=8, seed=k, exceptional_k=k)
                assert (len(tree.root.separator.exceptional) > 0) == (system.max_center_ply() > k)
                for nd in tree.nodes[1:]:
                    sep = nd.separator
                    members = nd.leaf_vertices if nd.is_leaf else np.concatenate([sep.cut, sep.inside, sep.outside])
                    assert system.subset(sorted(members)).max_center_ply() <= k
                    assert nd.is_leaf or len(sep.exceptional) == 0

    def test_small_leaves_and_singleton_rounds(self):
        # Nodes of 3 to 8 disks also try the singleton circles.
        for make in (lambda: rg.gen_gotham(8, 0, seed=2), lambda: rg.gen_random_geometric(60, 0.2, seed=4)):
            system = build_disk_system(make())
            for seed in range(3):
                got = build_decomposition(system, leaf_threshold=2, seed=seed, delta=0.75)
                _same_tree(got, reference.recursive_decomposition(system, leaf_threshold=2, seed=seed, delta=0.75))

    def test_failure_below_the_root(self, monkeypatch):
        # With one circle and no retry per node, seed 5 fails at a depth-2
        # node and, earlier in preorder, at a depth-4 node: the recursion
        # meets the deeper one first, so that is the node to name.
        monkeypatch.setattr(separators, "_PER_ROUND", 1)
        monkeypatch.setattr(separators, "_MAX_RETRIES", 0)
        failed_at = []
        split = separators._split_level

        def spy(*args):
            out = split(*args)
            failed_at.append(int((~out[2]).sum()))
            return out

        monkeypatch.setattr(separators, "_split_level", spy)
        system = build_disk_system(rg.gen_gotham(16, 2, seed=1))
        with pytest.raises(SeparatorFailure) as got:
            build_decomposition(system, leaf_threshold=8, seed=5)
        with pytest.raises(SeparatorFailure) as want:
            reference.recursive_decomposition(system, leaf_threshold=8, seed=5)
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith("decomposition failed at node 9 (depth 4): no balanced")
        assert str(got.value.__cause__) == str(want.value.__cause__)
        assert got.value.best_candidate is not None
        _same(got.value.best_candidate, want.value.best_candidate)
        assert failed_at[2] == failed_at[4] == 1


class TestRadonPoints:
    """The closed-form Radon step against the SVD null vector of the 4 x 5
    system, and its degenerate rule on groups that span no solid."""

    def test_matches_svd_on_well_conditioned_groups(self):
        rng = np.random.default_rng(4)
        groups = rng.normal(size=(5000, 5, 3))
        groups[:2000] = separators._lift_to_sphere(rng.normal(size=(10000, 2))).reshape(2000, 5, 3)
        m = np.concatenate([groups.transpose(0, 2, 1), np.ones((len(groups), 1, 5))], axis=1)
        _, sv, vt = np.linalg.svd(m)
        good = sv[:, 3] > 1e-2 * sv[:, 0]
        assert good.sum() > 4000
        groups, lam = groups[good], vt[good, -1]
        got = separators._radon_points(groups)
        scale = np.abs(groups).max(axis=(1, 2))[:, None]
        assert np.all(np.abs(got - reference.svd_radon_points(groups)) <= 1e-12 * scale)
        # Radon property: both sides of the dependence meet in that point.
        for side in (lam, -lam):
            w = np.clip(side, 0.0, None)
            point = (w[:, :, None] * groups).sum(axis=1) / w.sum(axis=1)[:, None]
            assert np.all(np.abs(got - point) <= 1e-12 * scale)

    def test_flat_groups_give_a_point_in_the_box(self):
        circle = np.array([(3, 4), (4, 3), (5, 0), (0, 5), (-3, 4)], dtype=float)
        groups = np.stack([
            separators._lift_to_sphere(circle / 5.0),  # cocircular, lifted: coplanar
            separators._lift_to_sphere(circle * 0.01 + (0.3, -0.7)),
            np.tile([0.3, -0.2, 0.9], (5, 1)),  # five equal points
            np.linspace([-0.5, 0.1, 0.2], [0.5, 0.3, -0.6], 5),  # collinear
            np.vstack([separators._lift_to_sphere(circle[:4] / 5.0), [(0.0, 0.0, -0.5)]]),
        ])
        got = separators._radon_points(groups)
        assert np.all(np.isfinite(got))
        assert np.all((groups.min(axis=1) <= got) & (got <= groups.max(axis=1)))
        # The first four span no solid: the degenerate rule takes the mean.
        assert np.allclose(got[:4], groups[:4].mean(axis=1), rtol=0.0, atol=1e-15)
        assert got.tolist() == [reference.scalar_radon_point(g) for g in groups]


def test_numpy_facts_the_batched_round_rests_on():
    """A batch of k normal 3-vectors is the stream of k single draws, and
    sqrt(vecdot) is the 1-D np.linalg.norm bit for bit.  If a numpy release
    breaks either, batched trees stop matching the scalar ones."""
    for seed in range(5):
        batch = np.random.default_rng(seed).normal(size=(12, 3))
        rng = np.random.default_rng(seed)
        assert np.array_equal(batch, np.array([rng.normal(size=3) for _ in range(12)]))
    rows = np.random.default_rng(7).normal(size=(20000, 3)) * np.logspace(-5, 5, 20000)[:, None]
    norms = np.sqrt(np.vecdot(rows, rows))
    assert np.array_equal(norms, np.array([np.linalg.norm(r) for r in rows]))


def test_numpy_facts_the_level_pass_rests_on():
    """The level pass stacks per-node work; each stacked or segmented form
    must round exactly as the per-node call it replaces.  If a numpy
    release breaks one, level-pass trees stop matching the recursion."""
    rng = np.random.default_rng(11)
    # The array determinant rounds as the same expression in Python
    # floats, at scales 1e-8..1e8 and on lifted points.
    rows = rng.normal(size=(3000, 3, 3)) * 10.0 ** rng.integers(-8, 9, size=(3000, 1, 1))
    plane = rng.normal(size=(3000, 2)) * 10.0 ** rng.integers(-8, 9, size=(3000, 1))
    rows[:1000] = separators._lift_to_sphere(plane).reshape(1000, 3, 3)
    got = separators._det3(*rows.transpose(1, 2, 0))
    want = np.array([reference.scalar_det3(*m.tolist()) for m in rows])
    assert got.tobytes() == want.tobytes()
    # Lock-step Radon reduction is per-set reduction: many sets, one
    # closed-form Radon pass a step.
    sizes = [1, 4, 5, 6, 24, 25, 26, 130, 999, 1000]
    sets = [separators._lift_to_sphere(rng.normal(size=(k, 2))) for k in sizes]
    seeds = [rng.integers(1 << 30) for _ in sizes]
    perms = [separators._radon_permutations(np.random.default_rng(s), k) for s, k in zip(seeds, sizes)]
    got = separators._centerpoints(np.concatenate(sets), np.array(sizes), perms)
    for z, pts, s in zip(got, sets, seeds):
        assert np.array_equal(z, reference.scalar_centerpoint(pts, np.random.default_rng(s)))
    # Run means of 1 to 4 rows and run medians are mean(axis=0) and np.median.
    counts = rng.integers(1, 5, size=300)
    pts = rng.normal(size=(counts.sum(), 3)) * 10.0 ** rng.integers(-8, 9, size=(counts.sum(), 1))
    start = np.cumsum(counts) - counts
    means = separators._small_means(pts, start, counts)
    for mean, a, c in zip(means, start, counts):
        assert np.array_equal(mean, pts[a : a + c].mean(axis=0))
    counts = rng.integers(1, 40, size=300)
    values = np.abs(rng.normal(size=counts.sum())).round(rng.integers(0, 3))
    values[::7] = 0.0
    start = np.cumsum(counts) - counts
    medians = separators._segment_medians(values, counts)
    for med, a, c in zip(medians, start, counts):
        assert med == np.median(values[a : a + c])
    # Stacked rotations are the one-vector rotation, and ``@`` with a
    # per-row rotation is ``@`` with the one rotation.
    z = rng.normal(size=(400, 3)) * np.logspace(-14, 2, 400)[:, None]
    z[:3] = [(0.0, 0.0, 0.0), (0.0, 0.0, 0.7), (1e-9, -1e-9, 0.9)]
    rot = separators._rotation_to_south(z)
    for r, zi in zip(rot, z):
        assert np.array_equal(r, reference.scalar_rotation_to_south(zi))
        assert np.array_equal(separators._rotation_to_south(zi), r)
    left = rng.normal(size=(len(rot), 3, 3))
    for i in range(0, len(rot), 5):
        block = left[i : i + 5]
        assert np.array_equal(block @ np.repeat(rot[i : i + 1], len(block), axis=0), block @ rot[i])
    # A node's SeedSequence, built from its spawn key, is the one that
    # spawn(3) calls down its path hand out.
    for seed in (0, 12345):
        node = np.random.SeedSequence(seed)
        for i in (1, 2, 2, 1, 0):
            node = node.spawn(3)[i]
        built = separators._spawned(np.random.SeedSequence(seed), (1, 2, 2, 1, 0))
        assert np.array_equal(built.generate_state(8), node.generate_state(8))


def test_decomposition_ignores_vertex_id_order():
    """Ids are only labels: unsorted, non-contiguous ids give the same tree."""
    s = build_disk_system(rg.gen_gotham(20, 2, seed=4))
    ids = np.random.default_rng(1).permutation(len(s)) * 3 + 7
    relabelled = DiskSystem(ids, s.centers, s.radii, s.pairs)
    got = build_decomposition(relabelled, leaf_threshold=12, seed=2)
    want = build_decomposition(s, leaf_threshold=12, seed=2)

    assert len(got) == len(want) and len(want) > 3
    for a, b in zip(got.nodes, want.nodes):
        assert (a.parent, a.depth, a.vertex_count) == (b.parent, b.depth, b.vertex_count)
        if b.is_leaf:
            assert np.array_equal(a.leaf_vertices, ids[b.leaf_vertices])
            continue
        sa, sb = a.separator, b.separator
        assert (sa.center, sa.radius, sa.retries) == (sb.center, sb.radius, sb.retries)
        for field in ("cut", "inside", "outside", "exceptional"):
            assert np.array_equal(getattr(sa, field), ids[getattr(sb, field)])
    assert np.array_equal(got.label[ids], want.label)
    assert np.count_nonzero(got.label >= 0) == len(s)


def test_written_out_cross_is_np_cross_bit_for_bit():
    """The separator lift writes np.cross out; it must round identically,
    signed zeros and non-finite rows included."""
    rng = np.random.default_rng(3)
    for k in (1, 7, 5000):
        a = rng.normal(size=(k, 3)) * np.logspace(-150, 150, k)[:, None]
        b = rng.normal(size=(k, 3))
        b[::3] = np.eye(3)[rng.integers(0, 3, size=len(b[::3]))]
        a[::5, 1] = -0.0
        if k > 10:
            a[3] = [np.inf, 1.0, np.nan]
        with np.errstate(invalid="ignore"):
            for x, y in ((a, b), (b, a), (a, a)):
                assert separators._cross(x, y).tobytes() == np.cross(x, y).tobytes()
    south = np.array([0.0, 0.0, -1.0])
    for z in rng.normal(size=(200, 3)):
        assert separators._cross(z, south).tobytes() == np.cross(z, south).tobytes()
