"""Circle arrangements over disk systems.

Two builders with one output contract: ``build_naive`` intersects every
recorded disk pair directly, ``build_inductive`` splices circles one at a
time in increasing (radius, id) order through the subarrangements of each
circle's smaller neighbor components, taken in radial order.  Both produce
per-circle cyclic vertex sequences; circles without vertices get a sentinel
vertex so the cell complex stays well formed (V - E + F = 1 + C).

Zero-radius disks are points, not curves, and stay out of arrangements.
Faces are traced on demand from the rotation system; tangent contacts are
ordered by signed curvature where tangent directions coincide.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from ._arrays import components, sorted_unique
from .augment import ClusteringReport, smaller_neighbor_components
from .disks import DiskSystem, covering_counts
from .errors import DegeneracyError, InvariantViolation
from .geometry import circle_circle_points


@dataclass(frozen=True)
class ArrangementVertex:
    point: tuple[float, float]
    circles: tuple[int, int]  # (i, j) with i < j, or (i, -1) for a sentinel
    tangent: bool = False

    @property
    def is_sentinel(self) -> bool:
        return self.circles[1] == -1


class CircleArrangement:
    """Cyclic arc structure of a set of circles.

    ``rings[c]`` lists vertex ids on circle ``c`` sorted by angle about its
    center; every circle contributes as many arcs as it has vertices (one
    full loop for a lone sentinel).
    """

    def __init__(self, centers, radii, vertices, rings):
        self.centers = np.asarray(centers, dtype=np.float64)
        self.radii = np.asarray(radii, dtype=np.float64)
        self.vertices: list[ArrangementVertex] = vertices
        self.rings: dict[int, list[int]] = rings
        self._faces = None

    @property
    def circle_count(self) -> int:
        return len(self.rings)

    @property
    def vertex_count(self) -> int:
        """All vertices, sentinels included (the Euler V)."""
        return len(self.vertices)

    @property
    def intersection_vertex_count(self) -> int:
        return sum(1 for v in self.vertices if not v.is_sentinel)

    @property
    def edge_count(self) -> int:
        return sum(len(r) for r in self.rings.values())

    @property
    def component_count(self) -> int:
        joined = np.array([v.circles for v in self.vertices if not v.is_sentinel], dtype=np.int64).reshape(-1, 2)
        label = components(len(self.radii), joined[:, 0], joined[:, 1])
        return len(sorted_unique(label[list(self.rings)]))

    def angle_on(self, vid: int, circle: int) -> float:
        x, y = self.vertices[vid].point
        return math.atan2(y - self.centers[circle, 1], x - self.centers[circle, 0])

    def face_count(self) -> int:
        """Faces of the embedded complex, traced from the rotation system."""
        if self._faces is not None:
            return self._faces
        arcs = []  # (circle, v_from, v_to)
        for c, ring in self.rings.items():
            k = len(ring)
            for t in range(k):
                arcs.append((c, ring[t], ring[(t + 1) % k]))

        def ccw_tangent(vid, c):
            px, py = self.vertices[vid].point
            dx = px - self.centers[c, 0]
            dy = py - self.centers[c, 1]
            return (-dy, dx)

        # Outgoing incidences: (vertex, angle, signed curvature, halfedge).
        incid: dict[int, list] = {}
        head = {}
        for a, (c, v_from, v_to) in enumerate(arcs):
            r = float(self.radii[c])
            for h, origin, sign in ((2 * a, v_from, 1.0), (2 * a + 1, v_to, -1.0)):
                tx, ty = ccw_tangent(origin, c)
                dx, dy = sign * tx, sign * ty
                # Center side seen from the outgoing direction fixes the
                # curvature sign; ties in direction sort by curvature.
                px, py = self.vertices[origin].point
                side = math.copysign(
                    1.0, dx * (self.centers[c, 1] - py) - dy * (self.centers[c, 0] - px)
                )
                incid.setdefault(origin, []).append(
                    (math.atan2(dy, dx), side / r, h)
                )
                head[h] = v_to if h % 2 == 0 else v_from
        pos = {}
        order = {}
        tol = 1e-9
        for v, items in incid.items():
            items.sort()
            # Directions equal up to float noise (tangential contacts) form
            # one group ordered by signed curvature; handle the -pi/pi wrap
            # by rotating the list to start at a genuine angular gap.
            k = len(items)
            start = 0
            for idx in range(k):
                prev = items[idx - 1][0] + (0.0 if idx else -2.0 * math.pi)
                if items[idx][0] - prev > tol:
                    start = idx
                    break
            rotated = items[start:] + items[:start]
            groups = []
            for item in rotated:
                if groups and item[0] - groups[-1][-1][0] <= tol:
                    groups[-1].append(item)
                else:
                    groups.append([item])
            flat = []
            for grp in groups:
                grp.sort(key=lambda it: it[1])
                flat.extend(grp)
            order[v] = [h for _, _, h in flat]
            for idx, h in enumerate(order[v]):
                pos[h] = idx

        def next_halfedge(h):
            twin = h ^ 1
            v = head[h]
            ring = order[v]
            return ring[(pos[twin] - 1) % len(ring)]

        seen = set()
        orbits = 0
        for h in range(2 * len(arcs)):
            if h in seen:
                continue
            orbits += 1
            cur = h
            while cur not in seen:
                seen.add(cur)
                cur = next_halfedge(cur)
        # Components share the single outer face.
        self._faces = orbits - (self.component_count - 1)
        return self._faces

    def euler_check(self) -> bool:
        v = self.vertex_count
        e = self.edge_count
        f = self.face_count()
        return v - e + f == 1 + self.component_count


def _pair_points(system, i, j):
    """Circle intersection points for a disk pair, rejecting duplicates."""
    try:
        pts = circle_circle_points(
            system.centers[i, 0],
            system.centers[i, 1],
            float(system.radii[i]),
            system.centers[j, 0],
            system.centers[j, 1],
            float(system.radii[j]),
        )
    except ValueError:
        raise DegeneracyError(f"duplicate circles ({i}, {j})") from None
    return pts


def _add_sentinels(system, vertices, rings):
    for c, ring in rings.items():
        if not ring:
            vid = len(vertices)
            vertices.append(
                ArrangementVertex(
                    (float(system.centers[c, 0] + system.radii[c]), float(system.centers[c, 1])),
                    (c, -1),
                )
            )
            ring.append(vid)


def _sorted_ring(arr, c, ring):
    ring.sort(key=lambda vid: arr.angle_on(vid, c))
    for a, b in zip(ring, ring[1:]):
        if arr.angle_on(a, c) == arr.angle_on(b, c):
            raise DegeneracyError(f"concurrent intersection points on circle {c}")
    return ring


def build_naive(system: DiskSystem) -> CircleArrangement:
    """Reference arrangement builder: intersect every recorded pair."""
    live = [i for i in range(len(system)) if system.radii[i] > 0]
    rings: dict[int, list[int]] = {c: [] for c in live}
    vertices: list[ArrangementVertex] = []
    holder = CircleArrangement(system.centers, system.radii, vertices, rings)
    for i, j in system.pairs:
        i, j = int(i), int(j)
        if system.radii[i] <= 0 or system.radii[j] <= 0:
            continue
        pts = _pair_points(system, i, j)
        for p in pts:
            vid = len(vertices)
            vertices.append(ArrangementVertex(p, (i, j), tangent=len(pts) == 1))
            rings[i].append(vid)
            rings[j].append(vid)
    for c in live:
        _sorted_ring(holder, c, rings[c])
    _add_sentinels(system, vertices, rings)
    return holder


def build_inductive(
    system: DiskSystem, clustering: ClusteringReport
) -> CircleArrangement:
    """Splice circles in increasing (radius, id) order.

    Each circle gathers the subarrangements built for the connected
    components of its smaller intersecting neighbors, sorts those components
    radially about its center (entry point: the minimum-angle new vertex),
    and splices itself through them in that order.  The output matches the
    naive builder structurally.
    """
    if len(clustering.component_counts) != len(system):
        raise InvariantViolation("clustering report does not match the system")
    order = sorted(range(len(system)), key=lambda i: (system.radii[i], i))
    live = [i for i in order if system.radii[i] > 0]
    rings: dict[int, list[int]] = {c: [] for c in live}
    vertices: list[ArrangementVertex] = []
    holder = CircleArrangement(system.centers, system.radii, vertices, rings)

    def insert(c, vid):
        ring = rings[c]
        ang = holder.angle_on(vid, c)
        lo, hi = 0, len(ring)
        while lo < hi:
            mid = (lo + hi) // 2
            other = holder.angle_on(ring[mid], c)
            if other == ang:
                raise DegeneracyError(f"concurrent intersection points on circle {c}")
            if other < ang:
                lo = mid + 1
            else:
                hi = mid
        ring.insert(lo, vid)

    components_of = smaller_neighbor_components(system)
    for v in order:
        comps = components_of[v]
        if len(comps) != int(clustering.component_counts[v]):
            raise InvariantViolation(
                f"clustering report claims {clustering.component_counts[v]} "
                f"components at vertex {v}, found {len(comps)}"
            )
        if system.radii[v] <= 0:
            continue
        # Intersect v's circle with each component; the component's entry
        # point is its minimum-angle vertex as seen from v's center.
        spliced = []
        for comp in comps:
            found = []
            for w in comp:
                if system.radii[w] <= 0:
                    continue
                for p in _pair_points(system, min(v, w), max(v, w)):
                    found.append((p, w))
            if not found:
                continue  # nested or detached component: nothing to splice
            entry = min(
                math.atan2(p[1] - system.centers[v, 1], p[0] - system.centers[v, 0])
                for p, _ in found
            )
            spliced.append((entry, found))
        spliced.sort(key=lambda item: item[0])
        for _, found in spliced:
            tangent_pairs = Counter(w for _, w in found)
            for p, w in found:
                vid = len(vertices)
                vertices.append(
                    ArrangementVertex(
                        p, (min(v, w), max(v, w)), tangent=tangent_pairs[w] == 1
                    )
                )
                insert(v, vid)
                insert(w, vid)
    _add_sentinels(system, vertices, rings)
    return holder


@dataclass(frozen=True)
class ComplexityAudit:
    vertex_count: int
    per_vertex_ratio: float


def complexity_audit(arr: CircleArrangement, system: DiskSystem) -> ComplexityAudit:
    """Check V <= 2 * |pairs| and report V and V/n."""
    v = arr.intersection_vertex_count
    bound = 2 * len(system.pairs)
    if v > bound:
        raise InvariantViolation(
            f"arrangement has {v} intersection vertices, pair bound is {bound}"
        )
    n = max(len(system), 1)
    return ComplexityAudit(v, v / n)


def vertex_depths(arr: CircleArrangement, system: DiskSystem) -> np.ndarray:
    """Disk-coverage depth at every arrangement vertex."""
    pts = np.asarray([v.point for v in arr.vertices], dtype=np.float64).reshape(-1, 2)
    return covering_counts(system, pts)


def system_ply(system: DiskSystem) -> int:
    """Exact max ply of the system: the deepest point of the plane.

    The maximum closed-disk depth is attained at a circle-circle crossing
    or at a disk center, so those candidates suffice.
    """
    pts = [system.centers]
    for i, j in system.pairs:
        i, j = int(i), int(j)
        if system.radii[i] > 0 and system.radii[j] > 0:
            got = _pair_points(system, i, j)
            if got:
                pts.append(np.asarray(got, dtype=np.float64))
    depths = covering_counts(system, np.vstack(pts))
    return int(depths.max()) if len(depths) else 0
