"""Randomized geometric circle separators and separator decomposition trees.

A separator is found by splitting off a greedy exceptional set so the rest
is low-ply, stereographically lifting the remaining disk centers to the unit
sphere, conformally re-centering an approximate centerpoint (iterated Radon
on a bounded sample), and sampling random great circles, which map back to
plane circles.  Candidates are kept only if they balance the whole system;
the smallest cut among the survivors wins, and the exceptional disks always
join the cut.  Every guarantee the callers rely on (partition, strict
containment, balance) is verified directly on the returned object, so the
randomized machinery only affects how fast a good circle is found.

The search runs on many disk systems at once (``_split_level``): the
members of every node of one tree depth sit node after node in one set of
arrays, each node draws from its own generator, and every centerpoint,
great-circle image and score of a round is computed for all nodes together.
``find_separator`` is its one-node case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._arrays import concat_ranges, frozen
from .disks import DiskSystem, exceptional_decomposition
from .errors import ConfigError, SeparatorFailure, ValidationError
from .geometry import circumcircles

_PER_ROUND = 12  # great circles drawn per round
_MAX_RETRIES = 24  # rounds after the first before a node gives up


@dataclass(frozen=True, eq=False)
class CircleSeparator:
    """A circle and the vertex ids it splits: read-only int64 arrays, each
    in the order of the system's positions."""

    center: tuple[float, float]
    radius: float
    cut: np.ndarray
    inside: np.ndarray
    outside: np.ndarray
    exceptional: np.ndarray
    retries: int

    @property
    def balance(self) -> float:
        total = len(self.cut) + len(self.inside) + len(self.outside)
        if total == 0:
            return 0.0
        return max(len(self.inside), len(self.outside)) / total


def _lift_to_sphere(pts: np.ndarray) -> np.ndarray:
    s = (pts**2).sum(axis=1)
    denom = s + 1.0
    return np.column_stack([2.0 * pts[:, 0], 2.0 * pts[:, 1], s - 1.0]) / denom[:, None]


def _sphere_to_plane(q: np.ndarray) -> np.ndarray:
    return q[..., :2] / (1.0 - q[..., 2:3])


def _plane_to_sphere(p: np.ndarray) -> np.ndarray:
    s = (p**2).sum(axis=-1, keepdims=True)
    return np.concatenate([2.0 * p, s - 1.0], axis=-1) / (s + 1.0)


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.cross`` of (..., 3) arrays, written out as its per-component
    multiply-then-subtract: the same bits without np.cross's per-call cost."""
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    return np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0], axis=-1)


_SOUTH = np.array([0.0, 0.0, -1.0])


def _rotation_to_south(z: np.ndarray) -> np.ndarray:
    """Rotation matrices (..., 3, 3) taking each direction z (..., 3) to
    (0, 0, -1): the identity for a (near) zero z, a flip around the x-axis
    for one pointing north.  ``a @ (0, 0, -1)`` is exactly ``-a[2]``, and a
    stacked ``@`` multiplies each 3 x 3 as a single call does."""
    z = np.asarray(z, dtype=np.float64)
    norm = np.sqrt(np.vecdot(z, z))[..., None]
    with np.errstate(divide="ignore", invalid="ignore"):
        a = z / norm
        v = _cross(a, _SOUTH)
        c = -a[..., 2]
        zero = np.zeros_like(c)
        vx = np.stack(
            [zero, -v[..., 2], v[..., 1], v[..., 2], zero, -v[..., 0], -v[..., 1], v[..., 0], zero],
            axis=-1,
        ).reshape(z.shape + (3,))
        rot = np.eye(3) + vx + vx @ vx / (1.0 + c)[..., None, None]
    rot = np.where((c < -1.0 + 1e-12)[..., None, None], np.diag([1.0, -1.0, -1.0]), rot)
    return np.where((norm < 1e-12)[..., None], np.eye(3), rot)


def _runs(counts):
    """(owner, start) for runs of ``counts[i]`` consecutive items: the run of
    each item and the first item of each run."""
    return np.repeat(np.arange(len(counts)), counts), np.cumsum(counts) - counts


def _det3(a, b, c):
    """Determinants of 3 x 3 matrices with rows a, b, c, each given
    component first (a[k] is component k): a . (b x c), written out."""
    return (
        a[0] * (b[1] * c[2] - b[2] * c[1])
        + a[1] * (b[2] * c[0] - b[0] * c[2])
        + a[2] * (b[0] * c[1] - b[1] * c[0])
    )


# For lambda_1..lambda_4: the other three of the differences q_1..q_4, and
# the sign (-1)^i.
_OTHERS = np.array([[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]])
_SIGNS = np.array([-1.0, 1.0, -1.0, 1.0])[:, None]
_FLAT = 1e-12  # degenerate rule: max |lambda| <= _FLAT * s^3


def _radon_points(groups: np.ndarray) -> np.ndarray:
    """Radon point of each group of five points p_0..p_4 in R^3 (g, 5, 3).

    Five points have the affine dependence sum lambda_i p_i = 0 with sum
    lambda_i = 0, in closed form by Cramer's rule: lambda_i = (-1)^i D_i,
    D_i the determinant of the other four points' differences from the
    first of them.  For i >= 1 these are the differences q_j = p_j - p_0;
    lambda_0 is -(lambda_1 + lambda_2 + lambda_3 + lambda_4), which is
    D_0, since the lambda sum to zero.  The Radon point is the positive
    side, sum max(lambda_i, 0) p_i / sum max(lambda_i, 0), which equals
    the negative side.

    Degenerate rule: points that span no solid (coplanar, collinear or
    equal) leave every D_i at rounding noise.  When max |lambda_i| <=
    1e-12 s^3, s the largest |q_jk| of the group, the group's point is its
    mean (weights all 1).  Either way the point is a convex combination of
    the group, so it lies in the group's bounding box.
    """
    p = groups.transpose(1, 2, 0)  # (5, 3, g): point, component, group
    q = p[1:] - p[0]
    a, b, c = q[_OTHERS].transpose(1, 2, 0, 3)  # each (3, 4, g)
    lam = np.empty((5, len(groups)))
    lam[1:] = _det3(a, b, c) * _SIGNS
    lam[0] = -(lam[1] + lam[2] + lam[3] + lam[4])
    s = np.abs(q).max(axis=(0, 1))
    flat = np.abs(lam).max(axis=0) <= _FLAT * (s * s * s)
    w = np.where(flat, 1.0, np.where(lam > 0.0, lam, 0.0))
    acc, wsum = w[0] * p[0], w[0]
    for i in range(1, 5):
        acc = acc + w[i] * p[i]
        wsum = wsum + w[i]
    return (acc / wsum).T


def _radon_permutations(rng, m: int) -> list:
    """The permutations that iterated Radon reduction of m points draws,
    in order: m falls to m // 5 + m % 5 per step until it is below five."""
    perms = []
    while m >= 5:
        perms.append(rng.permutation(m))
        m = m // 5 + m % 5
    return perms


def _small_means(pts, start, counts):
    """Mean of each run of 1 to 4 rows: the sequential sum over rows that
    ``mean(axis=0)`` takes, divided by the run length."""
    acc = pts[start]
    for i in range(1, 4):
        more = counts > i
        acc[more] += pts[start[more] + i]
    return acc / counts[:, None]


def _centerpoints(pts, counts, perms) -> np.ndarray:
    """Approximate centerpoints of many point sets by iterated Radon
    reduction, all sets in lock-step.

    Set i is ``counts[i]`` consecutive rows of ``pts`` (.., 3) and applies
    the permutations ``perms[i]``, one per step.  A step permutes every set
    of five or more points, replaces each full group of five by its Radon
    point (one closed-form ``_radon_points`` pass for the groups of all
    sets; a group spanning no solid gives its mean) and keeps the remainder
    after them; a set below five points ends as its mean.  Per set these
    are the steps of a one-set reduction, bit for bit.
    """
    z = np.empty((len(counts), 3))
    ids = np.arange(len(counts))
    step = 0
    while True:
        done = counts < 5
        if done.any():
            off = np.cumsum(counts) - counts
            z[ids[done]] = _small_means(pts, off[done], counts[done])
            pts = pts[concat_ranges(off[~done], counts[~done])]
            ids, counts = ids[~done], counts[~done]
        if not len(ids):
            return z
        off = np.cumsum(counts) - counts
        pts = pts[np.concatenate([perms[i][step] for i in ids]) + np.repeat(off, counts)]
        g = counts // 5
        rest = counts - 5 * g
        kept = g + rest
        new_off = np.cumsum(kept) - kept
        out = np.empty((int(kept.sum()), 3))
        out[concat_ranges(new_off, g)] = _radon_points(
            pts[concat_ranges(off, 5 * g)].reshape(-1, 5, 3)
        )
        out[concat_ranges(new_off + g, rest)] = pts[concat_ranges(off + 5 * g, rest)]
        pts, counts = out, kept
        step += 1


def _singleton_candidates(c, r):
    """Circles isolating one disk (centers c, radii r) each; a deterministic
    fallback for tiny systems where random great circles converge slowly.
    Returns (qx, qy, r) arrays, one circle per disk with a positive gap to
    its nearest other."""
    # gaps[i, j] = hypot(c_j - c_i) - r_j - r_i, subtracted in that order.
    gaps = np.hypot(c[:, 0] - c[:, 0, None], c[:, 1] - c[:, 1, None]) - r - r[:, None]
    np.fill_diagonal(gaps, np.inf)
    gap = gaps.min(axis=1)
    ok = gap > 0
    return c[ok, 0], c[ok, 1], r[ok] + 0.5 * gap[ok]


def _great_circle_images(u, alpha, rot, scale, centroid):
    """Plane circles of random great circles.

    Row i of ``u`` (k, 3) is the normal of a great circle; three points on
    it are pulled back through the conformal re-centering (``alpha``,
    ``rot``) and the normalisation (``scale``, ``centroid``), given once or
    per row.  Rows that give a zero normal, a point at the pole or collinear
    points are dropped.  Returns (qx, qy, r, rows): the circles of the kept
    rows and their row indices, in row order.  Every step is the per-row
    expression of a one-circle-at-a-time evaluation, so the circles are
    bit-identical to it: in particular ``sqrt(vecdot)`` rounds like the 1-D
    ``np.linalg.norm``, where ``(u * u).sum(1)`` does not.
    """
    k = len(u)
    alpha, scale = (np.broadcast_to(x, (k,)) for x in (alpha, scale))
    rot, centroid = np.broadcast_to(rot, (k, 3, 3)), np.broadcast_to(centroid, (k, 2))
    nu = np.sqrt(np.vecdot(u, u))
    rows = np.flatnonzero(~(nu < 1e-12))
    u = u[rows] / nu[rows, None]
    v = _cross(u, np.eye(3)[np.argmin(np.abs(u), axis=1)])
    v /= np.sqrt(np.vecdot(v, v))[:, None]
    w = _cross(u, v)
    tri = np.stack([v, w, -v], axis=1)  # (k, 3, 3): three points per circle
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        plane = _sphere_to_plane(tri)
        ok = np.isfinite(plane).all(axis=(1, 2))
        plane, rows = plane[ok], rows[ok]
        # rot.T applied rowwise
        flat = _sphere_to_plane(_plane_to_sphere(plane / alpha[rows, None, None]) @ rot[rows])
    ok = np.isfinite(flat).all(axis=(1, 2))
    flat, rows = flat[ok], rows[ok]
    qx, qy, r, kept = circumcircles(flat * scale[rows, None, None] + centroid[rows, None])
    return qx, qy, r, rows[kept]


def _sides(x, y, radii, free, qx, qy, rad):
    """Masks of the free disks (x, y, radii) strictly inside and strictly
    outside the circles (qx, qy, rad), all broadcast against each other:
    d + radii < rad and d - radii > rad for d = hypot(x - qx, y - qy)."""
    d = np.hypot(x - qx, y - qy)
    return (d + radii < rad) & free, (d - radii > rad) & free


def _segment_medians(values, counts):
    """``np.median`` of each run of ``counts[i]`` >= 1 consecutive values:
    the middle value, or the mean (lo + hi) / 2 of the two middle ones."""
    n = len(values)
    owner, start = _runs(counts)
    by_value = np.argsort(values)
    rank = np.empty(n, dtype=np.int64)
    rank[by_value] = np.arange(n)
    # Sorting run-major keys owner * n + rank orders each run by value.
    v = values[by_value[np.sort(owner * n + rank) - owner * n]]
    lo, hi = v[start + (counts - 1) // 2], v[start + counts // 2]
    return np.where(counts % 2 == 1, hi, (lo + hi) / 2)


def _split_level(centers, radii, forced, counts, rngs, delta):
    """Search one circle per node for many disk systems at once.

    ``centers``, ``radii`` and ``forced`` (the exceptional disks) hold the
    members of every node, node after node; node i has ``counts[i]``
    members and draws from ``rngs[i]``.  Each round, every node still
    searching draws its sample, Radon permutations and great-circle normals
    in the one-node order; then all centerpoints, circle images and
    (node, circle, disk) scores of the round are computed together.  A node
    takes the first circle with the smallest cut among its balanced ones;
    without one it keeps its best unbalanced circle and tries again.

    Returns (circle, retries, found, inside, outside): ``circle[i]`` is
    node i's (qx, qy, r), its best unbalanced one if ``found[i]`` is false
    (NaN if it never had a candidate), and ``inside``/``outside`` mask the
    members strictly on either side of their node's circle.
    """
    nodes = len(counts)
    owner, start = _runs(counts)
    free = ~forced
    res = np.flatnonzero(free)
    res_count = np.bincount(owner[res], minlength=nodes)
    circle = np.full((nodes, 3), np.nan)
    retries = np.zeros(nodes, dtype=np.int64)
    found = res_count == 0
    # Everything exceptional: any circle away from the data works.
    circle[found] = (0.0, 0.0, 1.0)
    search = np.flatnonzero(~found)

    # Normalize each node's residual centers for a well-conditioned lift.
    pts = centers[res]
    res_start = np.cumsum(res_count) - res_count
    centroid = np.zeros((nodes, 2))
    for i in search.tolist():  # per node: a segmented sum would round differently
        centroid[i] = pts[res_start[i] : res_start[i] + res_count[i]].mean(axis=0)
    shifted = pts - centroid[owner[res]]
    scale = np.ones(nodes)
    scale[search] = _segment_medians(np.hypot(*shifted.T), res_count[search])
    scale[scale <= 0] = 1.0
    lifted = _lift_to_sphere(shifted / scale[owner[res], None])

    best_side = np.full(nodes, np.inf)
    for attempt in range(_MAX_RETRIES + 1):
        if not len(search):
            break
        take, sizes, perms, normals = [], [], [], []
        for i in search.tolist():
            rng, m, s = rngs[i], int(res_count[i]), int(res_start[i])
            n_sample = min(1000, m)
            if n_sample < m:
                take.append(rng.choice(m, size=n_sample, replace=False) + s)
            else:
                take.append(np.arange(s, s + m))
            sizes.append(n_sample)
            perms.append(_radon_permutations(rng, n_sample))
            normals.append(rng.normal(size=(_PER_ROUND, 3)))
        z = _centerpoints(lifted[np.concatenate(take)], np.array(sizes), perms)
        h = np.minimum(np.sqrt(np.vecdot(z, z)), 1.0 - 1e-9)
        alpha = np.sqrt((1.0 + h) / (1.0 - h))
        row = np.repeat(np.arange(len(search)), _PER_ROUND)
        qx, qy, rad, kept = _great_circle_images(
            np.concatenate(normals), alpha[row], _rotation_to_south(z)[row],
            scale[search][row], centroid[search][row],
        )
        # q[:, j, a]: the j-th circle of the round of node search[a] (NaN
        # where it was dropped); singleton circles follow the random ones.
        tiny = np.flatnonzero((counts[search] <= 8) & (attempt == 0))
        extra = [
            _singleton_candidates(centers[a : a + c], radii[a : a + c])
            for a, c in zip(start[search[tiny]].tolist(), counts[search[tiny]].tolist())
        ]
        width = _PER_ROUND + max((len(e[0]) for e in extra), default=0)
        if not width:
            continue
        q = np.full((3, width, len(search)), np.nan)
        q[:, kept % _PER_ROUND, kept // _PER_ROUND] = qx, qy, rad
        for a, e in zip(tiny.tolist(), extra):
            q[:, _PER_ROUND : _PER_ROUND + len(e[0]), a] = e

        # Score every (circle, member of its node) pair, in blocks of
        # members that keep the temporaries in cache.
        n_of = counts[search]
        member = concat_ranges(start[search], n_of)
        at, first = _runs(n_of)
        inside, outside = np.empty((2, width, len(member)), dtype=bool)
        step = max(1, 16384 // width)
        for a in range(0, len(member), step):
            m, block = member[a : a + step], slice(a, a + step)
            inside[:, block], outside[:, block] = _sides(
                centers[m, 0], centers[m, 1], radii[m], free[m], *q[:, :, at[block]]
            )
        n_in = np.add.reduceat(inside, first, axis=1, dtype=np.int64)
        n_out = np.add.reduceat(outside, first, axis=1, dtype=np.int64)
        side = np.maximum(n_in, n_out)
        valid = ~np.isnan(q[0])
        balanced = valid & (side <= delta * n_of)
        never = np.iinfo(np.int64).max
        # First circle with the smallest cut among the balanced ones.
        pick = np.argmin(np.where(balanced, n_of - n_in - n_out, never), axis=0)
        ok = balanced.any(axis=0)
        done = search[ok]
        circle[done] = q[:, pick[ok], ok].T
        retries[done] = attempt
        found[done] = True
        # Else the first most even circle, if it beats the node's best so far.
        pick = np.argmin(np.where(valid, side, never), axis=0)
        low = side[pick, np.arange(len(search))]
        better = ~ok & valid.any(axis=0) & (low < best_side[search])
        best_side[search[better]] = low[better]
        circle[search[better]] = q[:, pick[better], better].T
        search = search[~ok]
    retries[~found] = _MAX_RETRIES
    inside, outside = _sides(
        centers[:, 0], centers[:, 1], radii, free, *circle[owner].T
    )
    return circle, retries, found, inside, outside


def _separators(ids, counts, circle, retries, forced, inside, outside) -> list:
    """One CircleSeparator per node of a level (None without a circle)."""
    nodes = len(counts)
    owner, _ = _runs(counts)
    parts = []
    for mask in (~(inside | outside), inside, outside, forced):
        vals = frozen(ids[mask])
        ends = np.cumsum(np.bincount(owner[mask], minlength=nodes)).tolist()
        parts.append([vals[a:b] for a, b in zip([0] + ends, ends)])
    return [
        None if math.isnan(x) else CircleSeparator((x, y), r, cut, ins, out, exc, t)
        for (x, y, r), t, cut, ins, out, exc in zip(circle.tolist(), retries.tolist(), *parts)
    ]


def find_separator(
    system: DiskSystem, delta: float = 0.75, exceptional_k: int = 8, seed=0
) -> CircleSeparator:
    """Find a balanced circle separator for the disk system.

    Neither side keeps more than ``delta`` of all disks; disks crossed by
    (or tangent to) the circle form the cut together with the greedy
    exceptional set that made the rest low-ply.  Raises SeparatorFailure,
    carrying the best candidate seen, if no balanced circle shows up within
    the retry budget.
    """
    n = len(system)
    if n < 2:
        raise ValidationError("separator needs at least 2 disks")
    if not 2.0 / 3.0 <= delta <= 0.75:
        raise ConfigError("delta must be in [2/3, 3/4]")

    rng = np.random.default_rng(seed)
    split = exceptional_decomposition(system, exceptional_k)
    forced = np.isin(system.vertices, split.removed)
    counts = np.array([n])
    circle, retries, found, inside, outside = _split_level(
        system.centers, system.radii, forced, counts, [rng], delta
    )
    (sep,) = _separators(system.vertices, counts, circle, retries, forced, inside, outside)
    if not found[0]:
        raise SeparatorFailure(
            f"no balanced separator within {_MAX_RETRIES} retries (n={n})", best_candidate=sep
        )
    return sep


@dataclass(eq=False)
class TreeNode:
    id: int
    parent: int | None
    depth: int
    vertex_count: int
    separator: CircleSeparator | None = None
    interior: int | None = None
    exterior: int | None = None
    leaf_vertices: np.ndarray | None = None  # read-only int64 ids of a leaf

    @property
    def is_leaf(self) -> bool:
        return self.separator is None


class SeparatorTree:
    """Recursive separator decomposition.

    Each internal node stores its separating circle; a vertex is labeled at
    the node where its disk joined the cut, or at the leaf containing it.
    """

    def __init__(self, nodes, label, leaf_threshold, delta):
        self.nodes = nodes
        self.label = label
        self.leaf_threshold = leaf_threshold
        self.delta = delta

    @property
    def root(self) -> TreeNode:
        return self.nodes[0]

    def internal_nodes(self):
        return [nd for nd in self.nodes if not nd.is_leaf]

    def path_to_root(self, node_id: int):
        path = [node_id]
        while self.nodes[path[-1]].parent is not None:
            path.append(self.nodes[path[-1]].parent)
        return path

    def depth(self) -> int:
        return max(nd.depth for nd in self.nodes)

    def __len__(self):
        return len(self.nodes)


def _spawned(root, key):
    """The SeedSequence reached from ``root`` by ``spawn(3)`` calls that
    take child key[0], then key[1], ...: spawning extends the spawn key by
    the child's index.  A node draws from child 0 of its own sequence and
    hands children 1 and 2 to its interior and exterior; building only the
    sequences that are used skips those of the leaves."""
    return np.random.SeedSequence(
        root.entropy, spawn_key=root.spawn_key + key, pool_size=root.pool_size
    )


def build_decomposition(
    system: DiskSystem,
    delta: float = 2.0 / 3.0,
    leaf_threshold: int = 32,
    seed=0,
    exceptional_k: int = 8,
) -> SeparatorTree:
    """Separate until subproblems fit under the leaf threshold.

    The tree is built one depth at a time.  The members of every node of a
    depth sit node after node in one position array; nodes at or under the
    leaf threshold become leaves, and the rest are split together by one
    ``_split_level`` pass.  The inside and outside members of each split
    node form its children, in one stable partition of the array.

    Deterministic for a fixed seed: every node draws its randomness from a
    spawned SeedSequence (its own stream, in the order a single
    ``find_separator`` call draws), so a node's separator does not depend on
    which other nodes are split alongside it, and the tree equals the one a
    node-by-node recursion builds.  Node ids are assigned after the tree is
    built, in preorder with the interior subtree before the exterior one.  If
    nodes fail, the SeparatorFailure names the preorder-first of them: the
    one a recursion would have reached first.
    """
    if leaf_threshold < 2:
        raise ConfigError("leaf_threshold must be >= 2")
    if not 2.0 / 3.0 <= delta <= 0.75:
        raise ConfigError("delta must be in [2/3, 3/4]")
    n = len(system)
    ids = system.vertices
    root = np.random.SeedSequence(seed)
    # The greedy exceptional split runs once, on the root: a split node's
    # children are subsets of its residual, whose center ply the split
    # left <= k, and a subset's ply is at most its superset's, so no node
    # below the root has a disk to remove.  The root's exceptional disks
    # join its cut, so ``forced`` reads False for every deeper member.
    forced = np.zeros(n, dtype=bool)
    if n > leaf_threshold:
        forced = np.isin(ids, exceptional_decomposition(system, exceptional_k).removed)
    nodes = [TreeNode(0, None, 0, n)]  # id = handle: creation order, depth by depth
    owner = np.full(n, -1, dtype=np.int64)  # handle of the node labelling each position
    failures = []

    # The current depth: members grouped by node, and each node's handle
    # and spawn key below the root SeedSequence.
    pos, counts = np.arange(n), np.array([n])
    handles, keys = np.array([0]), [()]
    while len(handles):
        small = counts <= leaf_threshold
        if small.any():
            at_leaf = np.repeat(small, counts)
            vals = frozen(ids[pos[at_leaf]])
            ends = np.cumsum(counts[small]).tolist()
            for h, a, b in zip(handles[small].tolist(), [0] + ends, ends):
                nodes[h].leaf_vertices = vals[a:b]
            owner[pos[at_leaf]] = np.repeat(handles[small], counts[small])
            pos, counts, handles = pos[~at_leaf], counts[~small], handles[~small]
            keys = [key for key, sm in zip(keys, small.tolist()) if not sm]
            if not len(handles):
                break
        circle, retries, found, inside, outside = _split_level(
            system.centers[pos], system.radii[pos], forced[pos], counts,
            [np.random.default_rng(_spawned(root, key + (0,))) for key in keys],
            delta,
        )
        level_seps = _separators(ids[pos], counts, circle, retries, forced[pos], inside, outside)
        for h, sep, ok in zip(handles.tolist(), level_seps, found.tolist()):
            if ok:
                nodes[h].separator = sep
            else:
                failures.append((h, sep))

        # The cut labels its node; the inside, then the outside members of
        # each split node form its children.
        local, _ = _runs(counts)
        split = found[local]
        cut = ~(inside | outside) & split
        owner[pos[cut]] = handles[local[cut]]
        go = (inside | outside) & split
        key = 2 * local[go] + outside[go]
        pos = pos[go][np.argsort(key, kind="stable")]
        child_counts = np.bincount(key, minlength=2 * len(counts))
        made = np.flatnonzero(child_counts)
        parents, keys = keys, []
        for c in made.tolist():
            up = nodes[handles[c // 2]]
            child = TreeNode(len(nodes), up.id, up.depth + 1, int(child_counts[c]))
            setattr(up, "exterior" if c % 2 else "interior", child.id)
            nodes.append(child)
            keys.append(parents[c // 2] + (1 + c % 2,))
        counts, handles = child_counts[made], np.arange(len(nodes) - len(made), len(nodes))

    # Preorder ids, interior subtree first.
    order, stack = [], [0]
    while stack:
        nd = nodes[stack.pop()]
        order.append(nd.id)
        stack.extend(h for h in (nd.exterior, nd.interior) if h is not None)
    pid = np.empty(len(order), dtype=np.int64)
    pid[order] = np.arange(len(order))
    if failures:
        h, best = min(failures, key=lambda f: pid[f[0]])
        exc = SeparatorFailure(
            f"no balanced separator within {_MAX_RETRIES} retries (n={nodes[h].vertex_count})",
            best_candidate=best,
        )
        raise SeparatorFailure(
            f"decomposition failed at node {pid[h]} (depth {nodes[h].depth}): {exc}",
            best_candidate=best,
        ) from exc
    pid_of = dict(enumerate(pid.tolist()))
    pid_of[None] = None
    for nd in nodes:
        nd.id, nd.parent = pid_of[nd.id], pid_of[nd.parent]
        nd.interior, nd.exterior = pid_of[nd.interior], pid_of[nd.exterior]
    label = np.full(int(ids.max()) + 1 if n else 0, -1, dtype=np.int64)
    label[ids] = pid[owner]
    return SeparatorTree([nodes[h] for h in order], label, leaf_threshold, delta)
