"""Independent brute-force oracles used to check the production code.

Everything here is deliberately written from the definitions, with exact
rational arithmetic where float rounding could matter, and no reuse of the
package's candidate-generation or classification paths.
"""

from fractions import Fraction

import numpy as np


def _sign(x):
    return (x > 0) - (x < 0)


def orient_frac(ax, ay, bx, by, cx, cy):
    det = (Fraction(bx) - Fraction(ax)) * (Fraction(cy) - Fraction(ay)) - (
        Fraction(by) - Fraction(ay)
    ) * (Fraction(cx) - Fraction(ax))
    return _sign(det)


def classify_pair_exact(p1, p2, p3, p4, share_vertex):
    """Contact kind of closed segments p1p2 / p3p4 under exact arithmetic.

    Returns (kind, point) like the production classifier; pairs that share a
    graph vertex only ever count as collinear overlaps.
    """
    (ax, ay), (bx, by) = p1, p2
    (cx, cy), (dx, dy) = p3, p4
    o1 = orient_frac(ax, ay, bx, by, cx, cy)
    o2 = orient_frac(ax, ay, bx, by, dx, dy)
    o3 = orient_frac(cx, cy, dx, dy, ax, ay)
    o4 = orient_frac(cx, cy, dx, dy, bx, by)

    if o1 == 0 and o2 == 0:
        horizontal = abs(Fraction(bx) - Fraction(ax)) >= abs(Fraction(by) - Fraction(ay))
        if horizontal:
            a0, a1 = sorted((Fraction(ax), Fraction(bx)))
            c0, c1 = sorted((Fraction(cx), Fraction(dx)))
        else:
            a0, a1 = sorted((Fraction(ay), Fraction(by)))
            c0, c1 = sorted((Fraction(cy), Fraction(dy)))
        lo, hi = max(a0, c0), min(a1, c1)
        if lo > hi:
            return None, None
        if lo == hi:
            if share_vertex:
                return None, None
            for px, py in (p1, p2, p3, p4):
                if Fraction(px if horizontal else py) == lo:
                    return "endpoint-touch", (px, py)
        return "collinear-overlap", None

    if share_vertex:
        return None, None

    if o1 * o2 < 0 and o3 * o4 < 0:
        rx, ry = Fraction(bx) - Fraction(ax), Fraction(by) - Fraction(ay)
        sx, sy = Fraction(dx) - Fraction(cx), Fraction(dy) - Fraction(cy)
        denom = rx * sy - ry * sx
        t = ((Fraction(cx) - Fraction(ax)) * sy - (Fraction(cy) - Fraction(ay)) * sx) / denom
        return "proper", (float(Fraction(ax) + t * rx), float(Fraction(ay) + t * ry))

    def between(px, py, qx, qy, rx_, ry_):
        return (
            min(qx, rx_) <= px <= max(qx, rx_)
            and min(qy, ry_) <= py <= max(qy, ry_)
        )

    if o1 == 0 and between(cx, cy, ax, ay, bx, by):
        return "endpoint-touch", (cx, cy)
    if o2 == 0 and between(dx, dy, ax, ay, bx, by):
        return "endpoint-touch", (dx, dy)
    if o3 == 0 and between(ax, ay, cx, cy, dx, dy):
        return "endpoint-touch", (ax, ay)
    if o4 == 0 and between(bx, by, cx, cy, dx, dy):
        return "endpoint-touch", (bx, by)
    return None, None


def all_pairs_crossings(g):
    """Exact O(m^2) contact enumeration: {(e1, e2): (kind, point)}."""
    m = g.m
    x1, y1, x2, y2 = g.segment_arrays()
    out = {}
    for i in range(m):
        for j in range(i + 1, m):
            if (
                max(x1[i], x2[i]) < min(x1[j], x2[j])
                or max(x1[j], x2[j]) < min(x1[i], x2[i])
                or max(y1[i], y2[i]) < min(y1[j], y2[j])
                or max(y1[j], y2[j]) < min(y1[i], y2[i])
            ):
                continue
            share = len(
                {int(g.edge_u[i]), int(g.edge_v[i])}
                & {int(g.edge_u[j]), int(g.edge_v[j])}
            ) > 0
            kind, point = classify_pair_exact(
                (float(x1[i]), float(y1[i])),
                (float(x2[i]), float(y2[i])),
                (float(x1[j]), float(y1[j])),
                (float(x2[j]), float(y2[j])),
                share,
            )
            if kind is not None:
                out[(i, j)] = (kind, point)
    return out


def all_pairs_disk_pairs(g_or_system):
    """O(n^2) closed-disk intersection pairs: hypot(ci - cj) <= ri + rj."""
    centers = g_or_system.centers
    radii = g_or_system.radii
    n = len(radii)
    pairs = set()
    for i in range(n):
        d = np.hypot(centers[:, 0] - centers[i, 0], centers[:, 1] - centers[i, 1])
        for j in np.flatnonzero(d <= radii[i] + radii):
            if j > i:
                pairs.add((i, int(j)))
    return pairs


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
