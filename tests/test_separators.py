import math

import numpy as np
import pytest

import oracles
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


class TestFindSeparator:
    def test_two_distant_disks(self):
        s = DiskSystem(
            [0, 1], [(0.0, 0.0), (100.0, 0.0)], [1.0, 1.0], np.empty((0, 2), int)
        )
        sep = find_separator(s, delta=0.75, exceptional_k=4, seed=0)
        assert sep.cut == ()
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
        assert a == b

    def test_failure_carries_best_candidate(self):
        from roadgeom.errors import SeparatorFailure

        s = build_disk_system(rg.gen_random_geometric(50, 0.2, seed=1))
        with pytest.raises(SeparatorFailure) as exc:
            find_separator(s, seed=0, candidates_per_round=0, max_retries=2)
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
        g = rg.gen_gotham(64, 0, seed=1)
        s = build_disk_system(g)
        delta, leaf = 2.0 / 3.0, 32
        tree = build_decomposition(s, delta=delta, leaf_threshold=leaf, seed=7)

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
            node_sys = s.subset([pos_of[v] for v in sep.cut + sep.inside + sep.outside])
            verify_separator_geometry(node_sys, sep)

    def test_determinism(self):
        s = build_disk_system(rg.gen_gotham(24, 2, seed=3))
        t1 = build_decomposition(s, leaf_threshold=16, seed=11)
        t2 = build_decomposition(s, leaf_threshold=16, seed=11)
        assert len(t1) == len(t2)
        assert np.array_equal(t1.label, t2.label)
        for a, b in zip(t1.nodes, t2.nodes):
            assert a.separator == b.separator
            assert a.leaf_vertices == b.leaf_vertices

    def test_leaf_threshold_validation(self):
        s = build_disk_system(rg.gen_gotham(4, 0, seed=0))
        with pytest.raises(ConfigError):
            build_decomposition(s, leaf_threshold=1, seed=0)

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


def _both_ways(system, **kw):
    got = _outcome(find_separator, system, **kw)
    assert got == _outcome(oracles.scalar_find_separator, system, **kw)
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
                qx, qy, r = separators._singleton_candidates(s)
                want = oracles._scalar_singleton_candidates(s)
                assert [((x, y), rr) for x, y, rr in zip(qx, qy, r)] == want
                for seed in range(4):
                    _both_ways(s, seed=seed)
                    _both_ways(s, seed=seed, candidates_per_round=0)

    def test_all_exceptional(self, monkeypatch):
        def everything(system, k):
            return ExceptionalSplit(tuple(system.vertices.tolist()), 0, 0, False)

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
            qx, qy, r = separators._great_circle_images(u, *args)
            want = [oracles.scalar_great_circle(row, *args) for row in u]
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

    def test_tree_with_oracle_patched_in(self, monkeypatch):
        system = build_disk_system(rg.gen_gotham(64, 8, seed=1))
        got = build_decomposition(system, seed=1)
        monkeypatch.setattr(separators, "find_separator", oracles.scalar_find_separator)
        want = build_decomposition(system, seed=1)
        assert len(got) == len(want)
        for a, b in zip(got.nodes, want.nodes):
            assert vars(a) == vars(b)
        assert np.array_equal(got.label, want.label)


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


def test_decomposition_ignores_vertex_id_order():
    """Ids are only labels: unsorted, non-contiguous ids give the same tree."""
    s = build_disk_system(rg.gen_gotham(20, 2, seed=4))
    ids = np.random.default_rng(1).permutation(len(s)) * 3 + 7
    relabelled = DiskSystem(ids, s.centers, s.radii, s.pairs)
    got = build_decomposition(relabelled, leaf_threshold=12, seed=2)
    want = build_decomposition(s, leaf_threshold=12, seed=2)

    def rename(members):
        return tuple(ids[list(members)].tolist())

    assert len(got) == len(want) and len(want) > 3
    for a, b in zip(got.nodes, want.nodes):
        assert (a.parent, a.depth, a.vertex_count) == (b.parent, b.depth, b.vertex_count)
        if b.is_leaf:
            assert a.leaf_vertices == rename(b.leaf_vertices)
            continue
        sa, sb = a.separator, b.separator
        assert (sa.center, sa.radius, sa.retries) == (sb.center, sb.radius, sb.retries)
        for field in ("cut", "inside", "outside", "exceptional"):
            assert getattr(sa, field) == rename(getattr(sb, field))
    assert np.array_equal(got.label[ids], want.label)
    assert np.count_nonzero(got.label >= 0) == len(s)
