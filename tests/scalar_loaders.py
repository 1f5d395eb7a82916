"""The line-by-line loaders that ``graphs.load_dimacs`` and ``graphs.load_csv``
replaced, kept as references for the array loaders, and the row-by-row
writers that ``graphs.save_dimacs`` and ``graphs.save_csv`` replaced,
kept as references for the bytes they write.

They parse with ``str.split``/``csv.DictReader`` and ``int()``/``float()``
per field and merge arcs in dicts.  Two behaviours of theirs are not the
array loaders': ``load_csv`` numbers its errors by csv row, not by
physical line, and both decode the files as UTF-8 instead of rejecting
non-ASCII and control bytes.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

from roadgeom.errors import ParseError, ValidationError
from roadgeom.graphs import COORD_SCALE, GeometricGraph


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
