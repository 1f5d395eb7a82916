"""Independent brute-force references used to check the production code.

Everything here is deliberately written from the definitions, with no reuse
of the package's candidate-generation paths.  The exception is
``scalar_find_separator``: the separator search with one candidate circle
at a time, which shares the package's stereographic maps and must match
the batched search bit for bit, and ``recursive_decomposition``, the
node-by-node separator tree the depth-by-depth builder must equal.
Likewise the one-pair-at-a-time arrangement builders and the dict face
tracer, which the vertex-table arrangement must match exactly, and
``pair_hops``, the per-source list BFS that the array hop searches of the
neighborly check must equal bit for bit, and ``joined_planarize``, the
planarization checked by one grid join over all its sub-edge pairs, whose
outcome and leftover pairs the rounding-local check must equal.  The
crossing and disk-pair oracles, which the benchmark imports too, are in
``oracles.py``.
"""

import heapq
import math

import numpy as np

from roadgeom import crossings as cr
from roadgeom._arrays import components


def all_pairs_center_ply(system):
    """Per-vertex count of disks covering that vertex's center, O(n^2)."""
    centers = system.centers
    radii = system.radii
    n = len(radii)
    ply = np.zeros(n, dtype=np.int64)
    for d in range(n):
        dist = np.hypot(centers[:, 0] - centers[d, 0], centers[:, 1] - centers[d, 1])
        ply += dist <= radii[d]
    return ply


def greedy_exceptional(system, k):
    """Greedy exceptional set from O(n^2) cover and intersection matrices.

    While some live center is covered by more than k live disks, remove the
    live disk with the most live intersecting partners (lowest position on
    ties).  Returns (removed vertex ids, residual max center ply).
    """
    centers = system.centers
    radii = system.radii
    n = len(radii)
    d = np.hypot(
        centers[:, None, 0] - centers[None, :, 0], centers[:, None, 1] - centers[None, :, 1]
    )
    covers = d <= radii[:, None]  # covers[a, p]: disk a covers center p
    meets = (d <= radii[:, None] + radii[None, :]) & ~np.eye(n, dtype=bool)
    live = np.ones(n, dtype=bool)
    removed = []
    while live.any():
        ply = covers[live].sum(axis=0)
        if ply[live].max() <= k:
            return tuple(int(system.vertices[p]) for p in removed), int(ply[live].max())
        degree = meets[:, live].sum(axis=1)
        pick = int(np.flatnonzero(live)[np.argmax(degree[live])])
        live[pick] = False
        removed.append(pick)
    return tuple(int(system.vertices[p]) for p in removed), 0


def brute_force_system_ply(system):
    """Max number of disks covering any point of the plane.

    The maximum closed-disk depth is attained at a circle-circle crossing
    point or at a disk center, so those candidates suffice.
    """
    import math

    centers = system.centers
    radii = system.radii
    n = len(radii)
    candidates = [tuple(c) for c in centers]
    for i in range(n):
        for j in range(i + 1, n):
            dx = centers[j, 0] - centers[i, 0]
            dy = centers[j, 1] - centers[i, 1]
            d2 = dx * dx + dy * dy
            rsum = radii[i] + radii[j]
            rdiff = radii[i] - radii[j]
            if d2 > rsum * rsum or d2 < rdiff * rdiff or d2 == 0.0:
                continue
            d = math.sqrt(d2)
            a = (d2 + radii[i] ** 2 - radii[j] ** 2) / (2 * d)
            h2 = radii[i] ** 2 - a * a
            h = math.sqrt(h2) if h2 > 0 else 0.0
            bx = centers[i, 0] + a * dx / d
            by = centers[i, 1] + a * dy / d
            candidates.append((bx + h * -dy / d, by + h * dx / d))
            candidates.append((bx - h * -dy / d, by - h * dx / d))
    best = 0
    pts = np.asarray(candidates)
    # Tiny slack absorbs the float error in the candidate points themselves;
    # it can only inflate the measured ply, which keeps bound checks safe.
    slack = 1e-9 * max(1.0, float(radii.max(initial=0.0)))
    for k in range(0, len(pts), 1024):
        chunk = pts[k : k + 1024]
        dist = np.hypot(
            chunk[:, None, 0] - centers[None, :, 0],
            chunk[:, None, 1] - centers[None, :, 1],
        )
        depth = (dist <= radii[None, :] + slack).sum(axis=1)
        best = max(best, int(depth.max()))
    return best


def bellman_ford(g, source):
    """O(nm) single-source shortest paths; exact float minima."""
    n = g.n
    dist = np.full(n, np.inf)
    dist[source] = 0.0
    u = g.edge_u
    v = g.edge_v
    w = g.edge_weight
    for _ in range(max(n - 1, 1)):
        before = dist.copy()
        np.minimum.at(dist, v, before[u] + w)
        np.minimum.at(dist, u, before[v] + w)
        if np.array_equal(before, dist):
            break
    return dist


def heap_sssp(g, source):
    """Textbook binary-heap Dijkstra, (dist, vertex) pops: (dist, parent)."""
    indptr, nbr, _, wt = g.adjacency()
    dist = np.full(g.n, np.inf)
    parent = np.full(g.n, -1, dtype=np.int64)
    dist[source] = 0.0
    heap = [(0.0, source)]
    done = np.zeros(g.n, dtype=bool)
    while heap:
        d, u = heapq.heappop(heap)
        if done[u]:
            continue
        done[u] = True
        for k in range(indptr[u], indptr[u + 1]):
            v = int(nbr[k])
            nd = d + wt[k]
            if nd < dist[v]:
                dist[v] = nd
                parent[v] = u
                heapq.heappush(heap, (nd, v))
    return dist, parent


def multi_source_dist(g, sites):
    """Exact nearest-site distances: column-wise min over per-site runs."""
    mat = np.vstack([bellman_ford(g, s) for s in sites])
    return mat.min(axis=0), mat


def ray_shoot_all(g):
    """O(n*m) axis-ray shortcut oracle.

    For every vertex and each of the four axis directions, find the first
    non-incident edge hit by the ray and return the hit edge, hit point, and
    the chosen (nearer, then lower-id) endpoint.
    """
    hits = {}
    x1, y1, x2, y2 = g.segment_arrays()
    for v in range(g.n):
        vx, vy = float(g.xy[v, 0]), float(g.xy[v, 1])
        for direction in ("up", "down", "left", "right"):
            best = None  # (distance, edge, hit point)
            for e in range(g.m):
                if int(g.edge_u[e]) == v or int(g.edge_v[e]) == v:
                    continue
                ex1, ey1, ex2, ey2 = float(x1[e]), float(y1[e]), float(x2[e]), float(y2[e])
                if direction in ("up", "down"):
                    if not (min(ex1, ex2) <= vx <= max(ex1, ex2)):
                        continue
                    if ex1 == ex2:
                        # Edge collinear with the ray: first point along the
                        # ray is the origin itself if straddled, else the
                        # nearer endpoint.
                        lo, hi = min(ey1, ey2), max(ey1, ey2)
                        if lo <= vy <= hi:
                            hit_y = vy
                        elif direction == "up":
                            hit_y = lo if lo >= vy else None
                        else:
                            hit_y = hi if hi <= vy else None
                        if hit_y is None:
                            continue
                    else:
                        t = (vx - ex1) / (ex2 - ex1)
                        hit_y = ey1 + t * (ey2 - ey1)
                        if direction == "up" and hit_y < vy:
                            continue
                        if direction == "down" and hit_y > vy:
                            continue
                    dist = abs(hit_y - vy)
                    cand = (dist, e, (vx, hit_y))
                else:
                    if not (min(ey1, ey2) <= vy <= max(ey1, ey2)):
                        continue
                    if ey1 == ey2:
                        lo, hi = min(ex1, ex2), max(ex1, ex2)
                        if lo <= vx <= hi:
                            hit_x = vx
                        elif direction == "right":
                            hit_x = lo if lo >= vx else None
                        else:
                            hit_x = hi if hi <= vx else None
                        if hit_x is None:
                            continue
                    else:
                        t = (vy - ey1) / (ey2 - ey1)
                        hit_x = ex1 + t * (ex2 - ex1)
                        if direction == "right" and hit_x < vx:
                            continue
                        if direction == "left" and hit_x > vx:
                            continue
                    dist = abs(hit_x - vx)
                    cand = (dist, e, (hit_x, vy))
                if best is None or cand[:2] < best[:2]:
                    best = cand
            if best is None:
                continue
            dist, e, (hx, hy) = best
            d_u = (x1[e] - hx) ** 2 + (y1[e] - hy) ** 2
            d_v = (x2[e] - hx) ** 2 + (y2[e] - hy) ** 2
            if d_u < d_v or (d_u == d_v and g.edge_u[e] < g.edge_v[e]):
                target = int(g.edge_u[e])
            else:
                target = int(g.edge_v[e])
            hits[(v, direction)] = target
    return hits


class UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb

    def component_count(self):
        return len({self.find(x) for x in self.parent})


def _hops(out, start, goal, cutoff):
    """Hop count of the shortest out-edge path start -> goal, or None when
    it is longer than cutoff or there is none."""
    frontier, seen, hops = {start}, {start}, 0
    while goal not in seen:
        if hops == cutoff or not frontier:
            return None
        hops += 1
        frontier = {w for u in frontier for w in out[u] if w not in seen}
        seen |= frontier
    return hops


def pair_hops(indptr, nbr, start, goal, cutoff):
    """Hop count of the shortest path start[k] -> goal[k] for every k, or -1
    when it is longer than ``cutoff`` or there is none.

    One level-synchronous BFS per distinct start answers all of its goals;
    it stops once every goal has a hop count or at depth ``cutoff``.  Goals
    outside the start's (weakly) connected component get no search.
    """
    n = len(indptr) - 1
    label = components(n, np.repeat(np.arange(n), np.diff(indptr)), nbr)
    hops = np.full(len(start), -1, dtype=np.int64)
    live = np.flatnonzero(label[start] == label[goal])
    live = live[np.argsort(start[live], kind="stable")]
    s = start[live]
    head = np.ones(len(s), dtype=bool)
    np.not_equal(s[1:], s[:-1], out=head[1:])
    first = np.flatnonzero(head)
    sources = s[first]
    ptr, adj = indptr.tolist(), nbr.tolist()
    seen = [-1] * n
    for source, group in zip(sources.tolist(), np.split(live, first[1:])):
        goals = goal[group].tolist()
        pending, found = set(goals) - {source}, {source: 0}
        seen[source] = source
        frontier, depth = [source], 0
        while pending and frontier and depth < cutoff:
            depth += 1
            reached = []
            for u in frontier:
                for x in adj[ptr[u] : ptr[u + 1]]:
                    if seen[x] != source:
                        seen[x] = source
                        reached.append(x)
                        if x in pending:
                            found[x] = depth
                            pending.discard(x)
            frontier = reached
        hops[group] = [found.get(w, -1) for w in goals]
    return hops


def neighborly(g, system, shortcuts, cutoff):
    """The neighborly report's five fields, one BFS per ordered disk pair.

    Out-lists come from the graph's edge arrays plus the (origin, target,
    direction) shortcuts; a pair past the cutoff counts as cutoff hops and
    sets its graph's truncation flag.
    """
    plain = [set() for _ in range(g.n)]
    for u, v in zip(g.edge_u.tolist(), g.edge_v.tolist()):
        plain[u].add(v)
        plain[v].add(u)
    augmented = [set(s) for s in plain]
    for origin, target, _ in shortcuts:
        augmented[origin].add(target)
    worst = {"aug": 0, "plain": 0}
    truncated = {"aug": False, "plain": False}
    per_pair = []
    for i, j in system.pairs.tolist():
        v, w = int(system.vertices[i]), int(system.vertices[j])
        pair_worst = 0
        for name, out in (("aug", augmented), ("plain", plain)):
            for a, b in ((v, w), (w, v)):
                hops = _hops(out, a, b, cutoff)
                if hops is None:
                    truncated[name], hops = True, cutoff
                worst[name] = max(worst[name], hops)
                if name == "aug":
                    pair_worst = max(pair_worst, hops)
        per_pair.append(((v, w), pair_worst))
    per_pair.sort(key=lambda item: (-item[1], item[0]))
    return worst["aug"], worst["plain"], truncated["aug"], truncated["plain"], tuple(per_pair[:10])


def smaller_neighbor_component_counts(system):
    """Per position v: components among the intersecting neighbors that
    come before v in (radius, position) order, by union-find over the pairs."""
    nbrs = [set() for _ in range(len(system))]
    for i, j in system.pairs.tolist():
        nbrs[i].add(j)
        nbrs[j].add(i)
    key = [(float(r), p) for p, r in enumerate(system.radii)]
    counts = []
    for v in range(len(system)):
        members = {w for w in nbrs[v] if key[w] < key[v]}
        uf = UnionFind(members)
        for w in members:
            for x in nbrs[w] & members:
                uf.union(w, x)
        counts.append(uf.component_count())
    return counts


def _scalar_circumcircle(ax, ay, bx, by, cx, cy):
    """Center and radius of the circle through three points, or None if
    the points are (numerically) collinear."""
    d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    scale = max(abs(ax), abs(ay), abs(bx), abs(by), abs(cx), abs(cy), 1.0)
    if abs(d) < 1e-12 * scale * scale:
        return None
    a2 = ax * ax + ay * ay
    b2 = bx * bx + by * by
    c2 = cx * cx + cy * cy
    ux = (a2 * (by - cy) + b2 * (cy - ay) + c2 * (ay - by)) / d
    uy = (a2 * (cx - bx) + b2 * (ax - cx) + c2 * (bx - ax)) / d
    r = math.hypot(ax - ux, ay - uy)
    if not (math.isfinite(ux) and math.isfinite(uy) and math.isfinite(r)):
        return None
    return (ux, uy), r


def scalar_great_circle(u, alpha, rot, scale, centroid):
    """The plane circle ((ux, uy), r) of the great circle with normal u,
    pulled back through the re-centering and normalisation of a separator
    round, or None where the round skips it."""
    from roadgeom.separators import _plane_to_sphere, _sphere_to_plane

    nu = np.linalg.norm(u)
    if nu < 1e-12:
        return None
    u = u / nu
    axis = np.eye(3)[int(np.argmin(np.abs(u)))]
    v = np.cross(u, axis)
    v /= np.linalg.norm(v)
    w = np.cross(u, v)
    tri = np.vstack([v, w, -v])  # three points on the great circle
    plane = _sphere_to_plane(tri)
    if not np.all(np.isfinite(plane)):
        return None
    back = _plane_to_sphere(plane / alpha) @ rot
    flat = _sphere_to_plane(back)
    if not np.all(np.isfinite(flat)):
        return None
    flat = flat * scale + centroid
    return _scalar_circumcircle(*flat[0], *flat[1], *flat[2])


def _scalar_singleton_candidates(system):
    out = []
    c = system.centers
    r = system.radii
    for i in range(len(system)):
        d = np.hypot(c[:, 0] - c[i, 0], c[:, 1] - c[i, 1]) - r - r[i]
        d[i] = np.inf
        gap = float(d.min()) if len(d) > 1 else 1.0
        if gap > 0:
            out.append(((float(c[i, 0]), float(c[i, 1])), float(r[i] + 0.5 * gap)))
    return out


def scalar_rotation_to_south(z):
    """Rotation matrix taking direction z to (0, 0, -1), one vector at a time."""
    norm = np.linalg.norm(z)
    if norm < 1e-12:
        return np.eye(3)
    a = z / norm
    b = np.array([0.0, 0.0, -1.0])
    v = np.cross(a, b)
    c = float(a @ b)
    if c < -1.0 + 1e-12:
        return np.diag([1.0, -1.0, -1.0])
    vx = np.array([[0, -v[2], v[1]], [v[2], 0, -v[0]], [-v[1], v[0], 0]])
    return np.eye(3) + vx + vx @ vx / (1.0 + c)


def svd_radon_points(groups):
    """Radon point of each group of five points in R^3 (g, 5, 3): the
    affine dependence as the null vector of the stacked 4 x 5 systems
    [p_i; 1] by SVD, the positive side of it, or the mean where that side
    is empty.  An independent check of the closed form."""
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


def scalar_det3(a, b, c):
    """Determinant of the 3 x 3 matrix with rows a, b, c (Python floats)."""
    return (
        a[0] * (b[1] * c[2] - b[2] * c[1])
        + a[1] * (b[2] * c[0] - b[0] * c[2])
        + a[2] * (b[0] * c[1] - b[1] * c[0])
    )


def scalar_radon_point(group):
    """Radon point of five points in R^3, one group in Python floats.

    lambda_i = (-1)^i times the determinant of the other points'
    differences from p_0 for i >= 1, lambda_0 = -(lambda_1 + ... +
    lambda_4); the point is sum max(lambda_i, 0) p_i over the sum of those
    weights.  When max |lambda_i| <= 1e-12 s^3, s the largest coordinate
    difference from p_0, the weights are all 1 (the mean)."""
    p = [[float(x) for x in pt] for pt in group]
    q = [[p[i][k] - p[0][k] for k in range(3)] for i in range(1, 5)]
    lam = [0.0]
    for i in range(1, 5):
        d = scalar_det3(*(q[j] for j in range(4) if j != i - 1))
        lam.append(-d if i % 2 else d)
    lam[0] = -(lam[1] + lam[2] + lam[3] + lam[4])
    s = max(abs(x) for row in q for x in row)
    if max(abs(x) for x in lam) <= 1e-12 * (s * s * s):
        w = [1.0] * 5
    else:
        w = [x if x > 0.0 else 0.0 for x in lam]
    acc, wsum = [w[0] * x for x in p[0]], w[0]
    for i in range(1, 5):
        acc = [a + w[i] * x for a, x in zip(acc, p[i])]
        wsum = wsum + w[i]
    return [a / wsum for a in acc]


def scalar_centerpoint(points3, rng):
    """Iterated Radon reduction of one point set: permute, replace each
    full group of five by its Radon point, keep the rest, until fewer than
    five points are left; their mean."""
    pts = points3.copy()
    while len(pts) >= 5:
        pts = pts[rng.permutation(len(pts))]
        g = len(pts) // 5
        reduced = [scalar_radon_point(pts[5 * i : 5 * i + 5]) for i in range(g)]
        pts = np.vstack([np.array(reduced).reshape(g, 3), pts[5 * g :]])
    return pts.mean(axis=0)


def _scalar_separator(system, center, radius, forced, retries):
    """The CircleSeparator of one system by the circle (center, radius)."""
    from roadgeom.separators import CircleSeparator

    d = np.hypot(system.centers[:, 0] - center[0], system.centers[:, 1] - center[1])
    inside = (d + system.radii < radius) & ~forced
    outside = (d - system.radii > radius) & ~forced
    cut = ~(inside | outside)
    ids = system.vertices
    return CircleSeparator(
        (float(center[0]), float(center[1])),
        float(radius),
        ids[cut],
        ids[inside],
        ids[outside],
        ids[forced],
        retries,
    )


def scalar_find_separator(
    system, delta=0.75, exceptional_k=8, seed=0, candidates_per_round=12, max_retries=24
):
    """``separators.find_separator`` with one candidate circle at a time.

    Each round draws, lifts and maps back its great circles one by one,
    builds each plane circle with the scalar circumcircle, and scores each
    circle in its own pass over the disks.  The centerpoint, rotation and
    result are the one-at-a-time versions above; only the lift is the
    library's.  It must return exactly the library's separator (or
    failure).
    """
    from roadgeom.disks import exceptional_decomposition
    from roadgeom.errors import ConfigError, SeparatorFailure, ValidationError
    from roadgeom.separators import _lift_to_sphere

    n = len(system)
    if n < 2:
        raise ValidationError("separator needs at least 2 disks")
    if not 2.0 / 3.0 <= delta <= 0.75:
        raise ConfigError("delta must be in [2/3, 3/4]")

    rng = np.random.default_rng(seed)
    split = exceptional_decomposition(system, exceptional_k)
    forced = np.isin(system.vertices, split.removed)
    residual = np.flatnonzero(~forced)
    centers = system.centers
    radii = system.radii

    if len(residual) == 0:
        return _scalar_separator(system, (0.0, 0.0), 1.0, forced, retries=0)

    res_pts = centers[residual]
    centroid = res_pts.mean(axis=0)
    spread = np.hypot(*(res_pts - centroid).T)
    scale = float(np.median(spread))
    if scale <= 0:
        scale = 1.0
    lifted_all = _lift_to_sphere((res_pts - centroid) / scale)

    best = None  # (cut_size, circle)
    best_unbalanced = None  # (max_side, circle)
    limit_in = delta * n
    for attempt in range(max_retries + 1):
        sample_n = min(1000, len(lifted_all))
        sample_idx = (
            rng.choice(len(lifted_all), size=sample_n, replace=False)
            if sample_n < len(lifted_all)
            else np.arange(len(lifted_all))
        )
        z = scalar_centerpoint(lifted_all[sample_idx], rng)
        h = min(float(np.linalg.norm(z)), 1.0 - 1e-9)
        rot = scalar_rotation_to_south(z)
        alpha = math.sqrt((1.0 + h) / (1.0 - h))

        circles = []
        for _ in range(candidates_per_round):
            cc = scalar_great_circle(rng.normal(size=3), alpha, rot, scale, centroid)
            if cc is not None:
                circles.append(cc)
        if attempt == 0 and n <= 8:
            circles.extend(_scalar_singleton_candidates(system))

        for (qx, qy), rad in circles:
            d = np.hypot(centers[:, 0] - qx, centers[:, 1] - qy)
            inside = (d + radii < rad) & ~forced
            outside = (d - radii > rad) & ~forced
            n_in = int(inside.sum())
            n_out = int(outside.sum())
            cut_size = n - n_in - n_out
            side = max(n_in, n_out)
            if side <= limit_in:
                if best is None or cut_size < best[0]:
                    best = (cut_size, ((qx, qy), rad))
            elif best_unbalanced is None or side < best_unbalanced[0]:
                best_unbalanced = (side, ((qx, qy), rad))
        if best is not None:
            return _scalar_separator(system, *best[1], forced, retries=attempt)

    fallback = None
    if best_unbalanced is not None:
        fallback = _scalar_separator(system, *best_unbalanced[1], forced, retries=max_retries)
    raise SeparatorFailure(
        f"no balanced separator within {max_retries} retries (n={n})",
        best_candidate=fallback,
    )


def recursive_decomposition(
    system, delta=2.0 / 3.0, leaf_threshold=32, seed=0, exceptional_k=8, find=None
):
    """``separators.build_decomposition`` as a recursion: one ``find`` call
    (default ``find_separator``) and one ``DiskSystem.subset`` per child,
    node ids assigned as nodes are created (preorder, interior first), and
    the first failing node raises at once."""
    from roadgeom.errors import ConfigError, SeparatorFailure
    from roadgeom.separators import SeparatorTree, TreeNode, find_separator

    find = find or find_separator
    if leaf_threshold < 2:
        raise ConfigError("leaf_threshold must be >= 2")
    if not 2.0 / 3.0 <= delta <= 0.75:
        raise ConfigError("delta must be in [2/3, 3/4]")
    n = len(system)
    label_size = int(system.vertices.max()) + 1 if n else 0
    label = np.full(label_size, -1, dtype=np.int64)
    position_of = np.empty(label_size, dtype=np.int64)
    nodes = []

    def recurse(sub, parent, depth, ss):
        node_id = len(nodes)
        node = TreeNode(node_id, parent, depth, len(sub))
        nodes.append(node)
        if len(sub) <= leaf_threshold:
            node.leaf_vertices = sub.vertices
            label[sub.vertices] = node_id
            return node_id
        ss_sep, ss_in, ss_out = ss.spawn(3)
        try:
            sep = find(sub, delta=delta, exceptional_k=exceptional_k, seed=ss_sep)
        except SeparatorFailure as exc:
            raise SeparatorFailure(
                f"decomposition failed at node {node_id} (depth {depth}): {exc}",
                best_candidate=exc.best_candidate,
            ) from exc
        node.separator = sep
        label[sep.cut] = node_id
        position_of[sub.vertices] = np.arange(len(sub))
        inner = position_of[sep.inside]
        outer = position_of[sep.outside]
        if len(inner):
            node.interior = recurse(sub.subset(inner), node_id, depth + 1, ss_in)
        if len(outer):
            node.exterior = recurse(sub.subset(outer), node_id, depth + 1, ss_out)
        return node_id

    recurse(system, None, 0, np.random.SeedSequence(seed))
    return SeparatorTree(nodes, label, leaf_threshold, delta)


# -- circle arrangements, one pair and one vertex at a time ---------------------


def circle_circle_points(q1x, q1y, r1, q2x, q2y, r2):
    """Intersection points of two circles: a list of 0, 1 (tangent) or 2
    points, tangency by exact float comparison of squared distances.
    Identical circles raise ValueError."""
    dx = q2x - q1x
    dy = q2y - q1y
    d2 = dx * dx + dy * dy
    rsum = r1 + r2
    rdiff = r1 - r2
    if d2 == 0.0 and r1 == r2:
        raise ValueError("identical circles")
    if d2 > rsum * rsum or d2 < rdiff * rdiff:
        return []
    d = math.sqrt(d2)
    a = (d2 + r1 * r1 - r2 * r2) / (2.0 * d)
    bx = q1x + a * dx / d
    by = q1y + a * dy / d
    if d2 == rsum * rsum or d2 == rdiff * rdiff:
        return [(bx, by)]
    h2 = r1 * r1 - a * a
    if h2 <= 0.0:
        return [(bx, by)]
    h = math.sqrt(h2)
    ox = -dy * h / d
    oy = dx * h / d
    return [(bx + ox, by + oy), (bx - ox, by - oy)]


def smaller_neighbor_component_lists(system):
    """Per position v: the components of v's intersecting neighbors that
    come before v in (radius, position) order, each a sorted position list,
    in the order their first member appears in v's pair-adjacency row."""
    indptr, nbr = system.pair_adjacency()
    ptr, adj = indptr.tolist(), nbr.tolist()
    key = [(float(r), p) for p, r in enumerate(system.radii)]
    out = []
    for v in range(len(system)):
        row = adj[ptr[v] : ptr[v + 1]]
        members = [u for u in row if key[u] < key[v]]
        unvisited = set(members)
        comps = []
        for first in members:
            if first not in unvisited:
                continue
            unvisited.discard(first)
            comp, stack = [], [first]
            while stack:
                u = stack.pop()
                comp.append(u)
                for x in adj[ptr[u] : ptr[u + 1]]:
                    if x in unvisited:
                        unvisited.discard(x)
                        stack.append(x)
            comps.append(sorted(comp))
        out.append(comps)
    return out


class ListArrangement:
    """An arrangement as a list of ``ArrangementVertex`` plus rings."""

    def __init__(self, centers, radii, vertices, rings):
        self.centers, self.radii = centers, radii
        self.vertices, self.rings = vertices, rings


def _pair_points(system, i, j):
    from roadgeom.errors import DegeneracyError

    c, r = system.centers, system.radii
    try:
        return circle_circle_points(c[i, 0], c[i, 1], float(r[i]), c[j, 0], c[j, 1], float(r[j]))
    except ValueError:
        raise DegeneracyError(f"duplicate circles ({i}, {j})") from None


def _angle_on(system, point, c):
    return math.atan2(point[1] - system.centers[c, 1], point[0] - system.centers[c, 0])


def _add_sentinels(system, vertices, rings):
    from roadgeom.arrangement import ArrangementVertex

    for c, ring in rings.items():
        if not ring:
            ring.append(len(vertices))
            point = (float(system.centers[c, 0] + system.radii[c]), float(system.centers[c, 1]))
            vertices.append(ArrangementVertex(point, (c, -1)))


def naive_arrangement(system):
    """Every recorded pair intersected in pair order; rings sorted by angle."""
    from roadgeom.arrangement import ArrangementVertex
    from roadgeom.errors import DegeneracyError

    rings = {i: [] for i in range(len(system)) if system.radii[i] > 0}
    vertices = []
    for i, j in system.pairs.tolist():
        if system.radii[i] <= 0 or system.radii[j] <= 0:
            continue
        pts = _pair_points(system, i, j)
        for p in pts:
            rings[i].append(len(vertices))
            rings[j].append(len(vertices))
            vertices.append(ArrangementVertex(p, (i, j), tangent=len(pts) == 1))
    for c, ring in rings.items():
        ring.sort(key=lambda vid: _angle_on(system, vertices[vid].point, c))
        for a, b in zip(ring, ring[1:]):
            if _angle_on(system, vertices[a].point, c) == _angle_on(system, vertices[b].point, c):
                raise DegeneracyError(f"concurrent intersection points on circle {c}")
    _add_sentinels(system, vertices, rings)
    return ListArrangement(system.centers, system.radii, vertices, rings)


def inductive_arrangement(system, clustering):
    """Circles spliced one at a time in increasing (radius, id) order, each
    through its smaller neighbors' components sorted by entry angle, every
    new vertex inserted into two rings by binary search."""
    from roadgeom.arrangement import ArrangementVertex
    from roadgeom.errors import DegeneracyError, InvariantViolation

    if len(clustering.component_counts) != len(system):
        raise InvariantViolation("clustering report does not match the system")
    order = sorted(range(len(system)), key=lambda i: (system.radii[i], i))
    rings = {i: [] for i in order if system.radii[i] > 0}
    vertices = []

    def insert(c, vid):
        ring, ang = rings[c], _angle_on(system, vertices[vid].point, c)
        lo, hi = 0, len(ring)
        while lo < hi:
            mid = (lo + hi) // 2
            other = _angle_on(system, vertices[ring[mid]].point, c)
            if other == ang:
                raise DegeneracyError(f"concurrent intersection points on circle {c}")
            if other < ang:
                lo = mid + 1
            else:
                hi = mid
        ring.insert(lo, vid)

    components_of = smaller_neighbor_component_lists(system)
    for v in order:
        comps = components_of[v]
        if len(comps) != int(clustering.component_counts[v]):
            raise InvariantViolation(
                f"clustering report claims {clustering.component_counts[v]} "
                f"components at vertex {v}, found {len(comps)}"
            )
        if system.radii[v] <= 0:
            continue
        spliced = []
        for comp in comps:
            found = [
                (p, w)
                for w in comp
                if system.radii[w] > 0
                for p in _pair_points(system, min(v, w), max(v, w))
            ]
            if found:
                spliced.append((min(_angle_on(system, p, v) for p, _ in found), found))
        spliced.sort(key=lambda item: item[0])
        for _, found in spliced:
            for p, w in found:
                vid = len(vertices)
                single = sum(1 for _, x in found if x == w) == 1
                vertices.append(ArrangementVertex(p, (min(v, w), max(v, w)), tangent=single))
                insert(v, vid)
                insert(w, vid)
    _add_sentinels(system, vertices, rings)
    return ListArrangement(system.centers, system.radii, vertices, rings)


def traced_face_count(arr):
    """Faces of an arrangement traced half-edge by half-edge through dicts of
    its rotation system (any object with centers, radii, vertices, rings)."""
    arcs = [
        (c, ring[t], ring[(t + 1) % len(ring)]) for c, ring in arr.rings.items() for t in range(len(ring))
    ]
    incid, head = {}, {}
    for a, (c, v_from, v_to) in enumerate(arcs):
        r = float(arr.radii[c])
        for h, origin, sign in ((2 * a, v_from, 1.0), (2 * a + 1, v_to, -1.0)):
            px, py = arr.vertices[origin].point
            tx, ty = -(py - arr.centers[c, 1]), px - arr.centers[c, 0]
            dx, dy = sign * tx, sign * ty
            side = math.copysign(1.0, dx * (arr.centers[c, 1] - py) - dy * (arr.centers[c, 0] - px))
            incid.setdefault(origin, []).append((math.atan2(dy, dx), side / r, h))
            head[h] = v_to if h % 2 == 0 else v_from
    pos, order, tol = {}, {}, 1e-9
    for v, items in incid.items():
        items.sort()
        start = 0
        for idx in range(len(items)):
            prev = items[idx - 1][0] + (0.0 if idx else -2.0 * math.pi)
            if items[idx][0] - prev > tol:
                start = idx
                break
        groups = []
        for item in items[start:] + items[:start]:
            if groups and item[0] - groups[-1][-1][0] <= tol:
                groups[-1].append(item)
            else:
                groups.append([item])
        order[v] = [h for grp in groups for _, _, h in sorted(grp, key=lambda it: it[1])]
        for idx, h in enumerate(order[v]):
            pos[h] = idx
    seen, orbits = set(), 0
    for h in range(2 * len(arcs)):
        if h in seen:
            continue
        orbits += 1
        while h not in seen:
            seen.add(h)
            ring = order[head[h]]
            h = ring[(pos[h ^ 1] - 1) % len(ring)]
    circles = [c for c in arr.rings]
    uf = UnionFind(circles)
    for v in arr.vertices:
        if v.circles[1] != -1:
            uf.union(*v.circles)
    return orbits - (uf.component_count() - 1)


def joined_leftover(g, crossings):
    """The split of ``crossings.planarize`` checked by one grid join over all
    its sub-edge pairs: (graph, proper, off, a, b), where (a[k], b[k]),
    a < b in ascending order, are the sub-edge pairs that still cross
    properly."""
    graph, proper, _, _, off, _, _ = cr._cut(g, cr._table(crossings))
    a, b, kind, _, _ = cr._contacts(graph, *cr._cell_candidates(graph), junctions=False)
    left = kind == cr.KINDS.index(cr.PROPER)
    return graph, proper, off, a[left], b[left]


def joined_planarize(g, crossings):
    """``crossings.planarize`` with that joined check: the PlanarizedGraph,
    or the error of ``cr._leftover_error`` for the leftover pairs."""
    graph, proper, off, a, b = joined_leftover(g, crossings)
    if len(a):
        owner = np.repeat(np.arange(g.m), np.diff(off))
        raise cr._leftover_error(g, owner[a], owner[b])
    return cr.PlanarizedGraph(graph, g, proper, off)
