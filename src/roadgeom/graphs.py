"""Graph data model, file ingestion, and synthetic network generators.

Vertices are dense integer ids 0..n-1 carrying planar coordinates.  Edges are
undirected, weighted, and tagged with a hierarchy level in 1..4 (1 = major
artery, 4 = local road).  Weights are nonnegative but otherwise arbitrary:
nothing downstream assumes they reflect the geometry.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._arrays import csr, grid_join, sorted_unique
from .errors import ConfigError, ParseError, ValidationError

COORD_SCALE = 1e-6  # file coordinates are integers in micro-degrees


@dataclass(frozen=True)
class NetworkStats:
    n: int
    m: int
    max_degree: int
    degree_histogram: dict[int, int]


class GeometricGraph:
    """Immutable straight-line embedded graph.

    ``xy`` is an (n, 2) float64 array; edge endpoints are stored canonically
    with u < v.  ``meta`` carries loader diagnostics (duplicate coordinates,
    collapsed parallel edges, original ids) and is ignored by equality.
    """

    def __init__(self, xy, edge_u, edge_v, edge_weight, edge_level, meta=None):
        # Owned copies: the graph freezes its arrays without touching the
        # caller's buffers.
        xy = np.array(xy, dtype=np.float64, copy=True).reshape(-1, 2)
        u = np.array(edge_u, dtype=np.int64, copy=True).ravel()
        v = np.array(edge_v, dtype=np.int64, copy=True).ravel()
        w = np.array(edge_weight, dtype=np.float64, copy=True).ravel()
        lv = np.array(edge_level, dtype=np.int64, copy=True).ravel()
        if not (len(u) == len(v) == len(w) == len(lv)):
            raise ValidationError("edge arrays have inconsistent lengths")
        n = len(xy)
        if n and not np.all(np.isfinite(xy)):
            raise ValidationError("non-finite vertex coordinate")
        if len(u):
            if u.min() < 0 or v.min() < 0 or u.max() >= n or v.max() >= n:
                raise ValidationError("edge endpoint out of range")
            if np.any(u == v):
                raise ValidationError("self-loop edge")
            if not np.all(np.isfinite(w)) or w.min() < 0:
                raise ValidationError("edge weight must be finite and >= 0")
            if lv.min() < 1 or lv.max() > 4:
                raise ValidationError("edge level must be in 1..4")
            u, v = np.minimum(u, v), np.maximum(u, v)
            key = u * n + v
            if len(sorted_unique(key)) != len(key):
                raise ValidationError("duplicate parallel edge")
        self.xy = xy
        self.edge_u = u
        self.edge_v = v
        self.edge_weight = w
        self.edge_level = lv
        self.meta = dict(meta or {})
        for a in (self.xy, self.edge_u, self.edge_v, self.edge_weight, self.edge_level):
            a.setflags(write=False)
        self._adjacency = None

    # -- basic accessors ---------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.xy)

    @property
    def m(self) -> int:
        return len(self.edge_u)

    def degrees(self) -> np.ndarray:
        deg = np.zeros(self.n, dtype=np.int64)
        if self.m:
            np.add.at(deg, self.edge_u, 1)
            np.add.at(deg, self.edge_v, 1)
        return deg

    def adjacency(self):
        """CSR adjacency: (indptr, neighbor, edge_index, weight)."""
        if self._adjacency is None:
            indptr, nbr, slot = csr(self.n, self.edge_u, self.edge_v)
            eidx = slot >> 1
            self._adjacency = (indptr, nbr, eidx, self.edge_weight[eidx])
        return self._adjacency

    def segment_arrays(self):
        """Edge endpoint coordinates as (x1, y1, x2, y2) float64 arrays."""
        p = self.xy[self.edge_u]
        q = self.xy[self.edge_v]
        return p[:, 0], p[:, 1], q[:, 0], q[:, 1]

    def edge_lengths(self) -> np.ndarray:
        x1, y1, x2, y2 = self.segment_arrays()
        return np.hypot(x2 - x1, y2 - y1)

    def duplicate_coordinate_groups(self):
        """Groups of vertex ids sharing exactly equal coordinates."""
        if self.n == 0:
            return []
        # Sorted by x, then y, then id; -0.0 and 0.0 compare equal, as in
        # np.unique.  A group starts wherever a coordinate changes.
        x, y = self.xy[:, 0], self.xy[:, 1]
        order = np.lexsort((y, x))
        x, y = x[order], y[order]
        starts = np.flatnonzero(np.concatenate([[True], (x[1:] != x[:-1]) | (y[1:] != y[:-1])]))
        sizes = np.diff(np.append(starts, self.n))
        shared = sizes > 1
        order = order.tolist()
        return [
            tuple(order[a : a + c]) for a, c in zip(starts[shared].tolist(), sizes[shared].tolist())
        ]

    def __eq__(self, other):
        if not isinstance(other, GeometricGraph):
            return NotImplemented
        return (
            np.array_equal(self.xy, other.xy)
            and np.array_equal(self.edge_u, other.edge_u)
            and np.array_equal(self.edge_v, other.edge_v)
            and np.array_equal(self.edge_weight, other.edge_weight)
            and np.array_equal(self.edge_level, other.edge_level)
        )

    __hash__ = None

    def __repr__(self):
        return f"GeometricGraph(n={self.n}, m={self.m})"

    @classmethod
    def build(cls, points, edges, meta=None):
        """Convenience constructor from [(x, y), ...] and [(u, v, w, level), ...]."""
        if edges:
            eu, ev, ew, el = zip(
                *[(e[0], e[1], e[2], e[3] if len(e) > 3 else 4) for e in edges]
            )
        else:
            eu = ev = ew = el = ()
        return cls(np.asarray(points, dtype=np.float64).reshape(-1, 2), eu, ev, ew, el, meta)


def stats(g: GeometricGraph) -> NetworkStats:
    """Exact vertex/edge counts and the degree distribution."""
    deg = g.degrees()
    if g.n == 0:
        return NetworkStats(0, 0, 0, {})
    counts = np.bincount(deg)
    hist = {int(d): int(c) for d, c in enumerate(counts) if c > 0}
    return NetworkStats(g.n, g.m, int(deg.max()), hist)


# -- DIMACS ingestion -------------------------------------------------------


def _tokens(path):
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, 1):
            line = raw.strip()
            if not line or line.startswith("c"):
                continue
            yield lineno, line.split()


def load_dimacs(graph_path, coord_path) -> GeometricGraph:
    """Load a `.gr`/`.co` file pair.

    Paired opposite arcs with equal weight collapse to one undirected edge;
    parallel duplicates collapse to the minimum weight and are counted in
    ``meta['collapsed_parallel_arcs']``.  Coordinates are micro-degree
    integers scaled to float degrees.
    """
    graph_path = Path(graph_path)
    coord_path = Path(coord_path)

    n_declared = m_declared = None
    arcs = []
    for lineno, tok in _tokens(graph_path):
        if tok[0] == "p":
            if n_declared is not None:
                raise ParseError(f"{graph_path}:{lineno}: duplicate problem line")
            if len(tok) != 4 or tok[1] != "sp":
                raise ParseError(f"{graph_path}:{lineno}: expected 'p sp <n> <m>'")
            try:
                n_declared, m_declared = int(tok[2]), int(tok[3])
            except ValueError:
                raise ParseError(f"{graph_path}:{lineno}: bad problem line counts") from None
        elif tok[0] == "a":
            if len(tok) != 4:
                raise ParseError(f"{graph_path}:{lineno}: expected 'a <u> <v> <w>'")
            try:
                u, v, w = int(tok[1]), int(tok[2]), float(tok[3])
            except ValueError:
                raise ParseError(f"{graph_path}:{lineno}: non-numeric arc field") from None
            if w < 0 or not math.isfinite(w):
                raise ValidationError(f"{graph_path}:{lineno}: negative arc weight")
            if u == v:
                raise ValidationError(f"{graph_path}:{lineno}: self-loop arc")
            arcs.append((u, v, w))
        else:
            raise ParseError(f"{graph_path}:{lineno}: unknown directive {tok[0]!r}")
    if n_declared is None:
        raise ParseError(f"{graph_path}: missing 'p sp' header line")
    if len(arcs) != m_declared:
        raise ValidationError(
            f"{graph_path}: header declares {m_declared} arcs, found {len(arcs)}"
        )

    coords = {}
    for lineno, tok in _tokens(coord_path):
        if tok[0] == "p":
            continue  # optional 'p aux sp co n' header
        if tok[0] != "v" or len(tok) != 4:
            raise ParseError(f"{coord_path}:{lineno}: expected 'v <id> <x> <y>'")
        try:
            vid, x, y = int(tok[1]), int(tok[2]), int(tok[3])
        except ValueError:
            raise ParseError(f"{coord_path}:{lineno}: non-integer coordinate field") from None
        if vid in coords:
            raise ValidationError(f"{coord_path}:{lineno}: repeated vertex id {vid}")
        coords[vid] = (x * COORD_SCALE, y * COORD_SCALE)
    if len(coords) != n_declared:
        raise ValidationError(
            f"{coord_path}: header declares {n_declared} vertices, found {len(coords)}"
        )

    external_ids = sorted(coords)
    index_of = {vid: i for i, vid in enumerate(external_ids)}
    xy = np.array([coords[vid] for vid in external_ids], dtype=np.float64)

    merged: dict[tuple[int, int], float] = {}
    arc_count: dict[tuple[int, int], int] = {}
    for u, v, w in arcs:
        if u not in index_of or v not in index_of:
            missing = u if u not in index_of else v
            raise ValidationError(f"{graph_path}: arc references unknown vertex {missing}")
        key = (min(index_of[u], index_of[v]), max(index_of[u], index_of[v]))
        arc_count[key] = arc_count.get(key, 0) + 1
        merged[key] = w if key not in merged else min(merged[key], w)
    # A clean undirected pair contributes two arcs; anything beyond that is
    # a collapsed parallel duplicate.
    collapsed = sum(max(0, c - 2) for c in arc_count.values())

    eu = np.fromiter((k[0] for k in merged), dtype=np.int64, count=len(merged))
    ev = np.fromiter((k[1] for k in merged), dtype=np.int64, count=len(merged))
    ew = np.fromiter(merged.values(), dtype=np.float64, count=len(merged))
    el = np.full(len(merged), 4, dtype=np.int64)  # .gr carries no hierarchy info

    g = GeometricGraph(
        xy,
        eu,
        ev,
        ew,
        el,
        meta={
            "external_ids": external_ids,
            "collapsed_parallel_arcs": collapsed,
            "source": str(graph_path),
            # Road networks keep m proportional to n; recorded, not enforced.
            "edges_per_vertex": len(merged) / max(n_declared, 1),
        },
    )
    dupes = g.duplicate_coordinate_groups()
    if dupes:
        g.meta["duplicate_coordinate_vertices"] = dupes
    return g


def save_dimacs(g: GeometricGraph, graph_path, coord_path):
    """Write `.gr`/`.co` files (ids 1..n, coordinates rounded to micro-degrees)."""
    with open(graph_path, "w", encoding="utf-8") as gr:
        gr.write(f"p sp {g.n} {2 * g.m}\n")
        for i in range(g.m):
            u, v = int(g.edge_u[i]) + 1, int(g.edge_v[i]) + 1
            w = float(g.edge_weight[i])
            ws = str(int(w)) if w.is_integer() else repr(w)
            gr.write(f"a {u} {v} {ws}\n")
            gr.write(f"a {v} {u} {ws}\n")
    with open(coord_path, "w", encoding="utf-8") as co:
        co.write(f"p aux sp co {g.n}\n")
        for i in range(g.n):
            x = round(g.xy[i, 0] / COORD_SCALE)
            y = round(g.xy[i, 1] / COORD_SCALE)
            co.write(f"v {i + 1} {x} {y}\n")


# -- native CSV interchange --------------------------------------------------


def load_csv(vertices_path, edges_path) -> GeometricGraph:
    """Load the native interchange pair vertices.csv (id,x,y) and
    edges.csv (u,v,weight,level)."""
    vertices_path = Path(vertices_path)
    edges_path = Path(edges_path)
    ids = []
    pts = []
    with open(vertices_path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None or set(reader.fieldnames) < {"id", "x", "y"}:
            raise ParseError(f"{vertices_path}: expected header id,x,y")
        for lineno, row in enumerate(reader, 2):
            try:
                ids.append(int(row["id"]))
                pts.append((float(row["x"]), float(row["y"])))
            except (TypeError, ValueError):
                raise ParseError(f"{vertices_path}:{lineno}: bad vertex row") from None
    if len(set(ids)) != len(ids):
        raise ValidationError(f"{vertices_path}: duplicate vertex id")
    order = np.argsort(np.asarray(ids, dtype=np.int64), kind="stable")
    index_of = {ids[int(o)]: rank for rank, o in enumerate(order)}
    xy = np.asarray(pts, dtype=np.float64).reshape(-1, 2)[order]

    eu, ev, ew, el = [], [], [], []
    with open(edges_path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None or set(reader.fieldnames) < {"u", "v", "weight", "level"}:
            raise ParseError(f"{edges_path}: expected header u,v,weight,level")
        for lineno, row in enumerate(reader, 2):
            try:
                u, v = int(row["u"]), int(row["v"])
                w, lv = float(row["weight"]), int(row["level"])
            except (TypeError, ValueError):
                raise ParseError(f"{edges_path}:{lineno}: bad edge row") from None
            if u not in index_of or v not in index_of:
                missing = u if u not in index_of else v
                raise ValidationError(f"{edges_path}:{lineno}: unknown vertex {missing}")
            eu.append(index_of[u])
            ev.append(index_of[v])
            ew.append(w)
            el.append(lv)
    g = GeometricGraph(xy, eu, ev, ew, el, meta={"source": str(vertices_path)})
    dupes = g.duplicate_coordinate_groups()
    if dupes:
        g.meta["duplicate_coordinate_vertices"] = dupes
    return g


def save_csv(g: GeometricGraph, vertices_path, edges_path):
    with open(vertices_path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["id", "x", "y"])
        for i in range(g.n):
            writer.writerow([i, repr(float(g.xy[i, 0])), repr(float(g.xy[i, 1]))])
    with open(edges_path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["u", "v", "weight", "level"])
        for i in range(g.m):
            writer.writerow(
                [
                    int(g.edge_u[i]),
                    int(g.edge_v[i]),
                    repr(float(g.edge_weight[i])),
                    int(g.edge_level[i]),
                ]
            )


# -- generators ---------------------------------------------------------------


def gen_gotham(side: int, expressways: int, seed) -> GeometricGraph:
    """Orthogonal unit grid with straight expressway chords laid on top.

    The grid is ``side`` x ``side`` with unit level-4 edges.  Each expressway
    is a single level-1 edge between two fresh boundary vertices on opposite
    sides of the square, placed at seeded-random offsets whose separation
    guarantees the chord slices all the way through the block structure.
    Chords are not subdivided where they cross the grid.
    """
    if side < 2:
        raise ConfigError("side must be >= 2")
    if expressways < 0:
        raise ConfigError("expressways must be >= 0")
    if expressways > 0 and side < 4:
        raise ConfigError("expressway chords need side >= 4")

    idx = lambda i, j: i * side + j
    xs, ys = np.meshgrid(np.arange(side), np.arange(side), indexing="ij")
    xy = np.column_stack([xs.ravel(), ys.ravel()]).astype(np.float64)

    eu, ev = [], []
    for i in range(side):
        for j in range(side):
            if i + 1 < side:
                eu.append(idx(i, j))
                ev.append(idx(i + 1, j))
            if j + 1 < side:
                eu.append(idx(i, j))
                ev.append(idx(i, j + 1))
    ew = [1.0] * len(eu)
    el = [4] * len(eu)

    rng = np.random.default_rng(seed)
    L = float(side - 1)
    extra = []
    for k in range(expressways):
        horizontal = bool(rng.integers(0, 2))
        while True:
            a = float(rng.uniform(0.25, L - 0.25))
            b = float(rng.uniform(0.25, L - 0.25))
            # Separation > 1.25 puts at least one grid line strictly between
            # the endpoints, so every chord crosses both edge families.
            if abs(a - b) > 1.25:
                break
        if horizontal:
            p, q = (0.0, a), (L, b)
        else:
            p, q = (a, 0.0), (b, L)
        base = side * side + 2 * k
        extra.append((p, q, base))
    pts = [xy]
    for p, q, base in extra:
        pts.append(np.array([p, q]))
        eu.append(base)
        ev.append(base + 1)
        ew.append(math.hypot(q[0] - p[0], q[1] - p[1]))
        el.append(1)
    return GeometricGraph(np.vstack(pts), eu, ev, ew, el, meta={"generator": "gotham"})


def gen_random_geometric(n: int, radius: float, seed) -> GeometricGraph:
    """Uniform points in the unit square, edges between pairs at distance
    <= radius (weight = distance, level 4), found by a grid join."""
    if n < 1:
        raise ConfigError("n must be >= 1")
    if radius <= 0:
        raise ConfigError("radius must be > 0")
    rng = np.random.default_rng(seed)
    xy = rng.random((n, 2))
    eu, ev = grid_join(xy, xy, radius)
    first = eu < ev
    eu, ev = eu[first], ev[first]
    d = xy[eu] - xy[ev]
    d2 = d[:, 0] ** 2 + d[:, 1] ** 2
    keep = d2 <= radius * radius
    eu, ev, ew = eu[keep], ev[keep], np.sqrt(d2[keep])
    order = np.lexsort((ev, eu))
    eu, ev, ew = eu[order], ev[order], ew[order]
    return GeometricGraph(
        xy, eu, ev, ew, np.full(len(eu), 4, dtype=np.int64), meta={"generator": "rgg"}
    )


def gen_hub_spoke(ring: int, spokes: int, seed) -> GeometricGraph:
    """Road-like family with injected long roads.

    A ``ring`` x ``ring`` unit grid with a cleared central moat, a tight hub
    cluster in the middle, and one long level-1 spoke from each hub vertex
    out to the inner boundary of the surviving grid.  Every hub disk then
    covers the whole cluster, concentrating ply at the center while the grid
    stays near-unit ply.
    """
    if ring < 12:
        raise ConfigError("ring must be >= 12")
    if spokes < 1:
        raise ConfigError("spokes must be >= 1")
    c = (ring - 1) / 2.0
    hole = max(3, ring // 4)  # moat half-width; exceeds every hub disk radius

    keep = {}
    pts = []
    for i in range(ring):
        for j in range(ring):
            if max(abs(i - c), abs(j - c)) > hole:
                keep[(i, j)] = len(pts)
                pts.append((float(i), float(j)))
    eu, ev, ew, el = [], [], [], []
    for (i, j), a in keep.items():
        for di, dj in ((1, 0), (0, 1)):
            b = keep.get((i + di, j + dj))
            if b is not None:
                eu.append(a)
                ev.append(b)
                ew.append(1.0)
                el.append(4)

    # Inner boundary ring of the surviving grid, ordered by angle.
    boundary = [
        (i, j)
        for (i, j) in keep
        if max(abs(i - c), abs(j - c)) <= hole + 1.0
    ]
    boundary.sort(key=lambda p: math.atan2(p[1] - c, p[0] - c))

    rng = np.random.default_rng(seed)
    theta0 = float(rng.uniform(0, 2 * math.pi))
    hub_base = len(pts)
    cluster_r = 0.4
    for k in range(spokes):
        ang = theta0 + 2 * math.pi * k / spokes
        pts.append((c + cluster_r * math.cos(ang), c + cluster_r * math.sin(ang)))
    # Short ring edges inside the cluster keep it connected.
    for k in range(spokes):
        a, b = hub_base + k, hub_base + (k + 1) % spokes
        if spokes == 1:
            break
        if spokes == 2 and k == 1:
            break
        eu.append(min(a, b))
        ev.append(max(a, b))
        ew.append(
            math.hypot(pts[a][0] - pts[b][0], pts[a][1] - pts[b][1])
        )
        el.append(4)
    # One spoke per hub vertex to an evenly spread boundary target.
    for k in range(spokes):
        target = keep[boundary[(k * len(boundary)) // spokes % len(boundary)]]
        a = hub_base + k
        length = math.hypot(
            pts[a][0] - pts[target][0], pts[a][1] - pts[target][1]
        )
        eu.append(min(a, target))
        ev.append(max(a, target))
        ew.append(length)
        el.append(1)
    return GeometricGraph(
        np.asarray(pts, dtype=np.float64),
        eu,
        ev,
        ew,
        el,
        meta={"generator": "hubspoke"},
    )
