"""Randomized geometric circle separators and recursive decomposition trees.

A separator is found by splitting off a greedy exceptional set so the rest
is low-ply, stereographically lifting the remaining disk centers to the unit
sphere, conformally re-centering an approximate centerpoint (iterated Radon
on a bounded sample), and sampling random great circles, which map back to
plane circles.  Candidates are kept only if they balance the whole system;
the smallest cut among the survivors wins, and the exceptional disks always
join the cut.  Every guarantee the callers rely on (partition, strict
containment, balance) is verified directly on the returned object, so the
randomized machinery only affects how fast a good circle is found.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .disks import DiskSystem, exceptional_decomposition
from .errors import ConfigError, SeparatorFailure, ValidationError
from .geometry import circumcircles


@dataclass(frozen=True)
class CircleSeparator:
    center: tuple[float, float]
    radius: float
    cut: tuple
    inside: tuple
    outside: tuple
    exceptional: tuple
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


def _rotation_to_south(z: np.ndarray) -> np.ndarray:
    """Rotation matrix taking direction z to (0, 0, -1)."""
    norm = np.linalg.norm(z)
    if norm < 1e-12:
        return np.eye(3)
    a = z / norm
    b = np.array([0.0, 0.0, -1.0])
    v = np.cross(a, b)
    c = float(a @ b)
    if c < -1.0 + 1e-12:  # already north: flip around x-axis
        return np.diag([1.0, -1.0, -1.0])
    vx = np.array([[0, -v[2], v[1]], [v[2], 0, -v[0]], [-v[1], v[0], 0]])
    return np.eye(3) + vx + vx @ vx / (1.0 + c)


def _radon_points(groups: np.ndarray) -> np.ndarray:
    """Radon point of each group of five points in R^3 (batched)."""
    g = len(groups)
    m = np.concatenate(
        [groups.transpose(0, 2, 1), np.ones((g, 1, 5))], axis=1
    )  # (g, 4, 5): null vector gives an affine dependence
    _, _, vt = np.linalg.svd(m)
    lam = vt[:, -1, :]
    w = np.clip(lam, 0.0, None)
    wsum = w.sum(axis=1)
    degenerate = wsum < 1e-12
    w[degenerate] = 1.0
    wsum = w.sum(axis=1)
    return (w[:, :, None] * groups).sum(axis=1) / wsum[:, None]


def _centerpoint(points3: np.ndarray, rng) -> np.ndarray:
    """Approximate centerpoint via iterated Radon reduction."""
    pts = points3.copy()
    while len(pts) >= 5:
        pts = pts[rng.permutation(len(pts))]
        g = len(pts) // 5
        reduced = _radon_points(pts[: 5 * g].reshape(g, 5, 3))
        pts = np.vstack([reduced, pts[5 * g :]])
    return pts.mean(axis=0)


def _singleton_candidates(system: DiskSystem):
    """Circles isolating one disk each; a deterministic fallback for tiny
    systems where random great circles converge slowly.  Returns (qx, qy, r)
    arrays, one circle per disk with a positive gap to its nearest other."""
    c = system.centers
    r = system.radii
    # gaps[i, j] = hypot(c_j - c_i) - r_j - r_i, subtracted in that order.
    gaps = np.hypot(c[:, 0] - c[:, 0, None], c[:, 1] - c[:, 1, None]) - r - r[:, None]
    np.fill_diagonal(gaps, np.inf)
    gap = gaps.min(axis=1)
    ok = gap > 0
    return c[ok, 0], c[ok, 1], r[ok] + 0.5 * gap[ok]


def _great_circle_images(u, alpha, rot, scale, centroid):
    """Plane circles of one round's random great circles.

    Row i of ``u`` (k, 3) is the normal of a great circle; three points on
    it are pulled back through the conformal re-centering (``alpha``,
    ``rot``) and the normalisation (``scale``, ``centroid``).  Rows that
    give a zero normal, a point at the pole or collinear points are
    dropped.  Returns (qx, qy, r) for the rest in row order.  Every step is
    the per-row expression of a one-circle-at-a-time evaluation, so the
    circles are bit-identical to it: in particular ``sqrt(vecdot)`` rounds
    like the 1-D ``np.linalg.norm``, where ``(u * u).sum(1)`` does not.
    """
    nu = np.sqrt(np.vecdot(u, u))
    keep = ~(nu < 1e-12)
    u = u[keep] / nu[keep, None]
    v = np.cross(u, np.eye(3)[np.argmin(np.abs(u), axis=1)])
    v /= np.sqrt(np.vecdot(v, v))[:, None]
    w = np.cross(u, v)
    tri = np.stack([v, w, -v], axis=1)  # (k, 3, 3): three points per circle
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        plane = _sphere_to_plane(tri)
        plane = plane[np.isfinite(plane).all(axis=(1, 2))]
        flat = _sphere_to_plane(_plane_to_sphere(plane / alpha) @ rot)  # rot.T rowwise
    flat = flat[np.isfinite(flat).all(axis=(1, 2))]
    return circumcircles(flat * scale + centroid)


def find_separator(
    system: DiskSystem,
    delta: float = 0.75,
    exceptional_k: int = 8,
    seed=0,
    candidates_per_round: int = 12,
    max_retries: int = 24,
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
    if split.removed:
        forced = np.isin(system.vertices, np.asarray(split.removed, dtype=np.int64))
    else:
        forced = np.zeros(n, dtype=bool)
    residual = np.flatnonzero(~forced)
    centers = system.centers
    radii = system.radii

    if len(residual) == 0:
        # Everything is exceptional; any circle away from the data works.
        sep = _build_result(system, (0.0, 0.0), 1.0, forced, retries=0)
        return sep

    # Normalize residual centers for a well-conditioned lift.
    res_pts = centers[residual]
    centroid = res_pts.mean(axis=0)
    spread = np.hypot(*(res_pts - centroid).T)
    scale = float(np.median(spread))
    if scale <= 0:
        scale = 1.0
    lifted_all = _lift_to_sphere((res_pts - centroid) / scale)

    free = ~forced
    best_unbalanced = None  # (max_side, circle), carried across rounds
    limit_in = delta * n
    for attempt in range(max_retries + 1):
        sample_n = min(1000, len(lifted_all))
        sample_idx = (
            rng.choice(len(lifted_all), size=sample_n, replace=False)
            if sample_n < len(lifted_all)
            else np.arange(len(lifted_all))
        )
        z = _centerpoint(lifted_all[sample_idx], rng)
        h = min(float(np.linalg.norm(z)), 1.0 - 1e-9)
        rot = _rotation_to_south(z)
        alpha = math.sqrt((1.0 + h) / (1.0 - h))

        qx, qy, rad = _great_circle_images(
            rng.normal(size=(max(candidates_per_round, 0), 3)), alpha, rot, scale, centroid
        )
        if attempt == 0 and n <= 8:
            qx, qy, rad = (
                np.concatenate(pair) for pair in zip((qx, qy, rad), _singleton_candidates(system))
            )

        # Score every candidate at once: (k, n) distances from each circle's
        # center, the same expressions a per-circle pass evaluates.
        d = np.hypot(centers[:, 0] - qx[:, None], centers[:, 1] - qy[:, None])
        n_in = ((d + radii < rad[:, None]) & free).sum(axis=1)
        n_out = ((d - radii > rad[:, None]) & free).sum(axis=1)
        side = np.maximum(n_in, n_out)
        balanced = np.flatnonzero(side <= limit_in)
        if len(balanced):
            # First circle with the smallest cut among the balanced ones.
            i = balanced[np.argmin(n - n_in[balanced] - n_out[balanced])]
            return _build_result(system, (qx[i], qy[i]), rad[i], forced, retries=attempt)
        if len(side):
            i = int(np.argmin(side))
            if best_unbalanced is None or side[i] < best_unbalanced[0]:
                best_unbalanced = (side[i], ((qx[i], qy[i]), rad[i]))

    fallback = None
    if best_unbalanced is not None:
        (qx, qy), rad = best_unbalanced[1]
        fallback = _build_result(system, (qx, qy), rad, forced, retries=max_retries)
    raise SeparatorFailure(
        f"no balanced separator within {max_retries} retries (n={n})",
        best_candidate=fallback,
    )


def _build_result(system, center, radius, forced, retries) -> CircleSeparator:
    d = np.hypot(system.centers[:, 0] - center[0], system.centers[:, 1] - center[1])
    inside = (d + system.radii < radius) & ~forced
    outside = (d - system.radii > radius) & ~forced
    cut = ~(inside | outside)
    ids = system.vertices
    return CircleSeparator(
        (float(center[0]), float(center[1])),
        float(radius),
        tuple(ids[cut].tolist()),
        tuple(ids[inside].tolist()),
        tuple(ids[outside].tolist()),
        tuple(ids[forced].tolist()),
        retries,
    )


@dataclass
class TreeNode:
    id: int
    parent: int | None
    depth: int
    vertex_count: int
    separator: CircleSeparator | None = None
    interior: int | None = None
    exterior: int | None = None
    leaf_vertices: tuple | None = None

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

    def leaves(self):
        return [nd for nd in self.nodes if nd.is_leaf]

    def path_to_root(self, node_id: int):
        path = [node_id]
        while self.nodes[path[-1]].parent is not None:
            path.append(self.nodes[path[-1]].parent)
        return path

    def depth(self) -> int:
        return max(nd.depth for nd in self.nodes)

    def __len__(self):
        return len(self.nodes)


def build_decomposition(
    system: DiskSystem,
    delta: float = 2.0 / 3.0,
    leaf_threshold: int = 32,
    seed=0,
    exceptional_k: int = 8,
) -> SeparatorTree:
    """Recursively separate until subproblems fit under the leaf threshold.

    Deterministic for a fixed seed: every node draws its randomness from a
    spawned SeedSequence, independent of evaluation order.
    """
    if leaf_threshold < 2:
        raise ConfigError("leaf_threshold must be >= 2")
    n = len(system)
    label_size = int(system.vertices.max()) + 1 if n else 0
    label = np.full(label_size, -1, dtype=np.int64)
    # position_of[v]: position of vertex id v in the node being split; each
    # node writes its own vertices before reading its children's positions.
    position_of = np.empty(label_size, dtype=np.int64)
    nodes: list[TreeNode] = []

    def recurse(sub: DiskSystem, parent, depth, ss) -> int:
        node_id = len(nodes)
        node = TreeNode(node_id, parent, depth, len(sub))
        nodes.append(node)
        if len(sub) <= leaf_threshold:
            node.leaf_vertices = tuple(sub.vertices.tolist())
            label[sub.vertices] = node_id
            return node_id
        ss_sep, ss_in, ss_out = ss.spawn(3)
        try:
            sep = find_separator(sub, delta=delta, exceptional_k=exceptional_k, seed=ss_sep)
        except SeparatorFailure as exc:
            raise SeparatorFailure(
                f"decomposition failed at node {node_id} (depth {depth}): {exc}",
                best_candidate=exc.best_candidate,
            ) from exc
        node.separator = sep
        label[np.asarray(sep.cut, dtype=np.int64)] = node_id
        position_of[sub.vertices] = np.arange(len(sub))
        inner = position_of[np.asarray(sep.inside, dtype=np.int64)]
        outer = position_of[np.asarray(sep.outside, dtype=np.int64)]
        if len(inner):
            node.interior = recurse(sub.subset(inner), node_id, depth + 1, ss_in)
        if len(outer):
            node.exterior = recurse(sub.subset(outer), node_id, depth + 1, ss_out)
        return node_id

    recurse(system, None, 0, np.random.SeedSequence(seed))
    return SeparatorTree(nodes, label, leaf_threshold, delta)
