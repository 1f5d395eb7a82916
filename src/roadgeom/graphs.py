"""Graph data model, file ingestion, and synthetic network generators.

Vertices are dense integer ids 0..n-1 carrying planar coordinates.  Edges are
undirected, weighted, and tagged with a hierarchy level in 1..4 (1 = major
artery, 4 = local road).  Weights are nonnegative but otherwise arbitrary:
nothing downstream assumes they reflect the geometry.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._arrays import csr, grid_join, index_of, sorted_unique
from .errors import ConfigError, ParseError, ValidationError

COORD_SCALE = 1e-6  # file coordinates are integers in micro-degrees


class GeometricGraph:
    """Immutable straight-line embedded graph.

    ``xy`` is an (n, 2) float64 array; edge endpoints are stored canonically
    with u < v.  ``meta`` carries loader diagnostics (duplicate coordinates,
    collapsed parallel edges, original ids) and is ignored by equality.
    """

    def __init__(self, xy, edge_u, edge_v, edge_weight, edge_level, meta=None):
        # Owned copies: the graph freezes its arrays without touching the
        # caller's buffers.
        xy = _two_columns(xy, np.float64, "vertex coordinates")
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
        self._crossings = None  # crossings.find_crossings keeps its table here
        self._grid = None  # and crossings._grid the grid of the edges

    # -- basic accessors ---------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.xy)

    @property
    def m(self) -> int:
        return len(self.edge_u)

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


def _two_columns(rows, dtype, name) -> np.ndarray:
    """An owned copy of ``rows`` as a (k, 2) array; an empty input is (0, 2)
    and any other shape a ValidationError naming ``name``."""
    a = np.array(rows, dtype=dtype, copy=True)
    if a.size == 0:
        return a.reshape(0, 2)
    if a.ndim != 2 or a.shape[1] != 2:
        raise ValidationError(f"{name} must be rows of two columns, not an array of shape {a.shape}")
    return a


def _nearer_endpoint(g: GeometricGraph, e, px, py) -> np.ndarray:
    """Per k, the endpoint of edge e[k] nearer the point (px[k], py[k]), the
    lower vertex id on ties.

    Squared distances round as the scalar (x - px) ** 2 + (y - py) ** 2:
    float_power is the libm pow a scalar ``** 2`` uses.  Edges store u < v,
    so the lower id wins a tie exactly when du <= dv.
    """
    u, v = g.edge_u[e], g.edge_v[e]
    du = np.float_power(g.xy[u, 0] - px, 2) + np.float_power(g.xy[u, 1] - py, 2)
    dv = np.float_power(g.xy[v, 0] - px, 2) + np.float_power(g.xy[v, 1] - py, 2)
    return np.where(du <= dv, u, v)


# -- text ingestion ------------------------------------------------------------
#
# Both formats are read as whole-file arrays: one scan finds the field bounds
# and physical line numbers, numeric columns parse in bulk and validation runs
# on columns.  The error raised is the one at the earliest failing line, and
# within a line the first check in the order the checks are listed.

_NL, _TAB, _SPACE = 10, 9, 32
_ODD_BYTE = "non-ASCII or control byte"


def _scan(path, sep=None):
    r"""A text file as field bounds.

    Lines end at ``\n``, ``\r\n`` or a lone ``\r``.  Without ``sep`` the
    fields are the runs of bytes other than space and tab; with
    ``sep=","`` they are the spans between commas, stripped of spaces and
    tabs (a span holding two runs keeps the gap between them, so it will
    not parse).  Lines of spaces and tabs only are blank and dropped.

    Returns ``(buf, line, first, count, odd, start, end)``: the file as a
    uint8 array; for each non-blank line its physical number, the index of
    its first field, its field count and whether it holds a non-ASCII byte
    or a control byte other than tab; for each field its byte bounds
    ``[start, end)``, an empty field's at ``[0, 0)``.
    """
    data = Path(path).read_bytes()
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    if not data.endswith(b"\n"):
        data += b"\n"
    buf = np.frombuffer(data, dtype=np.uint8)
    odd = (buf - np.uint8(_SPACE)) > 126 - _SPACE  # wraps below the space
    odd &= buf != _TAB
    odd &= buf != _NL
    # A unit is a line, or with sep a field; each ends at one delimiter.
    delim = buf == _NL
    word = np.zeros(len(buf) + 2, dtype=bool)
    np.greater(buf, _SPACE, out=word[1:-1])
    word[1:-1] |= odd
    if sep is not None:
        delim |= buf == ord(sep)
        word[1:-1] &= ~delim
    stop = np.flatnonzero(delim)
    # Run bounds alternate: start, end, start, end, ...
    bounds = np.flatnonzero(word[1:] != word[:-1])
    start, end = bounds[0::2], bounds[1::2]
    cut = np.searchsorted(start, stop)  # runs before each delimiter
    first = np.concatenate([[0], cut[:-1]])
    runs = cut - first
    if sep is None:
        nl, count, keep = stop, runs, runs > 0
    else:
        start = np.where(runs > 0, np.append(start, 0)[first], 0)
        end = np.where(runs > 0, np.append(end, 0)[cut - 1], 0)
        last = np.flatnonzero(buf[stop] == _NL)  # each line's last field
        first = np.concatenate([[0], last[:-1] + 1])
        nl, count = stop[last], last - first + 1
        keep = (count > 1) | (runs[first] > 0)
    flagged = np.zeros(len(nl), dtype=bool)
    flagged[np.searchsorted(nl, np.flatnonzero(odd))] = True
    return buf, np.flatnonzero(keep) + 1, first[keep], count[keep], flagged[keep], start, end


def _column(first, count, k):
    """Field index of column ``k`` of each line; the line's first field
    where it has no column ``k``, so that the index stays valid."""
    return np.where(count > k, first + k, first)


def _rows(buf, start, w):
    """Bytes ``start .. start + w`` of ``buf`` for each start, one row each
    (zero bytes past the end of ``buf``)."""
    return sliding_window_view(np.concatenate([buf, np.zeros(w, dtype=np.uint8)]), w)[start]


def _ints(buf, start, end):
    """Values of the integer fields ``[start, end)`` of ``buf``, and whether
    each is well formed: ``[+-]?[0-9]{1,18}``."""
    width = end - start
    # Sign and 18 digits; a longer field is malformed whatever it holds.
    rows = _rows(buf, start, min(max(int(width.max(initial=0)), 1), 19))
    signed = (rows[:, 0] == ord("+")) | (rows[:, 0] == ord("-"))
    ok = (width - signed >= 1) & (width - signed <= 18)
    value = np.zeros(len(start), dtype=np.int64)
    for k in range(rows.shape[1]):
        live = (width > k) & ((k > 0) | ~signed)
        digit = rows[:, k] - np.uint8(ord("0"))
        ok &= ~live | (digit < 10)
        value = np.where(live, value * 10 + digit, value)
    return np.where(rows[:, 0] == ord("-"), -value, value), ok


def _floats(buf, start, end):
    """Values of the float fields ``[start, end)`` of ``buf`` as ``float()``
    parses them, and whether each parsed (NaN where not)."""
    width = end - start
    value = np.empty(len(start))
    ok = np.ones(len(start), dtype=bool)
    # One S-dtype conversion per width class [2^j, 2^(j+1)): the padded
    # copy stays within twice the column's bytes.
    group = np.frexp(np.maximum(width, 1))[1]
    for j in sorted_unique(group).tolist():
        sel = np.flatnonzero(group == j)
        w = max(int(width[sel].max()), 1)
        rows, short = _rows(buf, start[sel], w), width[sel]
        for k in range(int(short.min()), w):
            rows[short <= k, k] = 0
        text = rows.view(f"S{w}").ravel()
        try:
            value[sel] = text.astype(np.float64)
        except ValueError:
            # Some field does not parse: find which, one at a time.
            for i, t in zip(sel.tolist(), text.tolist()):
                try:
                    value[i] = float(t)
                except ValueError:
                    value[i], ok[i] = np.nan, False
    return value, ok


def _raise_first(path, checks):
    """Raise the error of the earliest failing line.

    ``checks`` lists ``(line, failed, error class, message)`` in the order
    the checks of one line run; ``line`` holds ascending line numbers and a
    callable message gets the index of the failing entry.
    """
    hits = []
    for rank, (line, failed, _, _) in enumerate(checks):
        where = np.flatnonzero(failed)
        if len(where):
            hits.append((int(line[where[0]]), rank, int(where[0])))
    if hits:
        lineno, rank, i = min(hits)
        _, _, cls, message = checks[rank]
        raise cls(f"{path}:{lineno}: {message(i) if callable(message) else message}")


def _directives(buf, start, end, first):
    """Per DIMACS line: the byte of a one-byte first token, ``c`` for a
    comment (a first token starting with ``c``), else 0."""
    lead = buf[start[first]]
    return np.where((lead == ord("c")) | (end[first] - start[first] == 1), lead, 0)


def _read_gr(path):
    """Declared vertex count and the arcs (u, v, w) of a ``.gr`` file."""
    buf, line, first, count, odd, start, end = _scan(path)
    code = _directives(buf, start, end, first)
    problem = np.flatnonzero(code == ord("p"))
    arc = np.flatnonzero(code == ord("a"))
    complete = arc[count[arc] == 4]

    p = problem[:1]  # the first problem line counts; any later one is a duplicate
    sp = _column(first[p], count[p], 1)
    shaped = (count[p] == 4) & (end[sp] - start[sp] == 2)
    shaped &= (buf[start[sp]] == ord("s")) & (buf[start[sp] + 1] == ord("p"))
    sizes = np.concatenate([_column(first[p], count[p], k) for k in (2, 3)])
    declared, declared_ok = _ints(buf, start[sizes], end[sizes])
    (u, u_ok), (v, v_ok), (w, w_ok) = (
        parse(buf, start[first[complete] + k], end[first[complete] + k])
        for k, parse in ((1, _ints), (2, _ints), (3, _floats))
    )
    unknown = (code != ord("c")) & (code != ord("p")) & (code != ord("a"))
    _raise_first(path, [
        (line, odd & (code != ord("c")), ParseError, _ODD_BYTE),
        (line[problem], np.arange(len(problem)) > 0, ParseError, "duplicate problem line"),
        (line[p], ~shaped, ParseError, "expected 'p sp <n> <m>'"),
        (line[p], ~declared_ok.reshape(2, -1).all(axis=0), ParseError, "bad problem line counts"),
        (line[arc], count[arc] != 4, ParseError, "expected 'a <u> <v> <w>'"),
        (line[complete], ~(u_ok & v_ok & w_ok), ParseError, "non-numeric arc field"),
        (line[complete], ~((w >= 0) & (w < np.inf)), ValidationError, "negative arc weight"),
        (line[complete], u == v, ValidationError, "self-loop arc"),
        (line, unknown, ParseError,
         lambda i: f"unknown directive {bytes(buf[start[first[i]] : end[first[i]]]).decode()!r}"),
    ])
    if not len(problem):
        raise ParseError(f"{path}: missing 'p sp' header line")
    n_declared, m_declared = declared.tolist()
    if len(arc) != m_declared:
        raise ValidationError(f"{path}: header declares {m_declared} arcs, found {len(arc)}")
    return n_declared, u, v, w


def _read_co(path, n_declared):
    """Sorted vertex ids and their coordinates in degrees, from a ``.co`` file."""
    buf, line, first, count, odd, start, end = _scan(path)
    code = _directives(buf, start, end, first)
    vertex = np.flatnonzero((code != ord("c")) & (code != ord("p")))  # 'p' lines are optional headers
    shaped = (code[vertex] == ord("v")) & (count[vertex] == 4)
    (vid, id_ok), (x, x_ok), (y, y_ok) = (
        _ints(buf, start[f], end[f]) for f in (_column(first[vertex], count[vertex], k) for k in (1, 2, 3))
    )
    numeric = id_ok & x_ok & y_ok
    valid = np.flatnonzero(shaped & numeric)
    order = np.argsort(vid[valid], kind="stable")
    repeated = np.zeros(len(valid), dtype=bool)
    ids = vid[valid][order]
    repeated[order[1:][ids[1:] == ids[:-1]]] = True
    _raise_first(path, [
        (line, odd & (code != ord("c")), ParseError, _ODD_BYTE),
        (line[vertex], ~shaped, ParseError, "expected 'v <id> <x> <y>'"),
        (line[vertex], ~numeric, ParseError, "non-integer coordinate field"),
        (line[vertex[valid]], repeated, ValidationError, lambda i: f"repeated vertex id {vid[valid[i]]}"),
    ])
    if len(vertex) != n_declared:
        raise ValidationError(f"{path}: header declares {n_declared} vertices, found {len(vertex)}")
    xy = np.column_stack([x[order], y[order]]) * COORD_SCALE
    return ids, xy


def load_dimacs(graph_path, coord_path) -> GeometricGraph:
    """Load a `.gr`/`.co` file pair.

    Paired opposite arcs with equal weight collapse to one undirected edge;
    parallel duplicates collapse to the minimum weight and are counted in
    ``meta['collapsed_parallel_arcs']``.  Edges come in the order of each
    pair's first arc.  Coordinates are micro-degree integers scaled to float
    degrees.
    """
    graph_path = Path(graph_path)
    coord_path = Path(coord_path)
    n_declared, u, v, w = _read_gr(graph_path)
    ids, xy = _read_co(coord_path, n_declared)

    iu, u_known = index_of(ids, u)
    iv, v_known = index_of(ids, v)
    unknown = np.flatnonzero(~(u_known & v_known))
    if len(unknown):
        i = unknown[0]
        raise ValidationError(
            f"{graph_path}: arc references unknown vertex {v[i] if u_known[i] else u[i]}"
        )
    lo, hi = np.minimum(iu, iv), np.maximum(iu, iv)
    # Stable, so each pair's group starts with its first arc.
    key = lo * len(ids) + hi
    order = np.argsort(key, kind="stable")
    key = key[order]
    head = np.ones(len(key), dtype=bool)
    np.not_equal(key[1:], key[:-1], out=head[1:])
    starts = np.flatnonzero(head)
    weight = np.minimum.reduceat(w[order], starts)
    # A clean undirected pair contributes two arcs; anything beyond that is
    # a collapsed parallel duplicate.
    collapsed = int(np.maximum(np.diff(np.append(starts, len(key))) - 2, 0).sum())
    edge = order[starts]
    by_first = np.argsort(edge)
    edge, weight = edge[by_first], weight[by_first]

    g = GeometricGraph(
        xy,
        lo[edge],
        hi[edge],
        weight,
        np.full(len(edge), 4, dtype=np.int64),  # .gr carries no hierarchy info
        meta={
            "external_ids": ids.tolist(),
            "collapsed_parallel_arcs": collapsed,
            "source": str(graph_path),
            # Road networks keep m proportional to n; recorded, not enforced.
            "edges_per_vertex": len(edge) / max(n_declared, 1),
        },
    )
    dupes = g.duplicate_coordinate_groups()
    if dupes:
        g.meta["duplicate_coordinate_vertices"] = dupes
    return g


def save_dimacs(g: GeometricGraph, graph_path, coord_path):
    """Write `.gr`/`.co` files (ids 1..n, coordinates rounded to micro-degrees).

    Integral weights are written as integers, others by ``repr``.
    """
    u, v = (g.edge_u + 1).tolist(), (g.edge_v + 1).tolist()
    w = [str(int(c)) if c.is_integer() else repr(c) for c in g.edge_weight.tolist()]
    arcs = (f"a {a} {b} {c}\na {b} {a} {c}\n" for a, b, c in zip(u, v, w))
    with open(graph_path, "w", encoding="utf-8") as gr:
        gr.write("".join([f"p sp {g.n} {2 * g.m}\n", *arcs]))
    x, y = (map(round, (g.xy[:, k] / COORD_SCALE).tolist()) for k in (0, 1))
    lines = (f"v {i} {a} {b}\n" for i, a, b in zip(range(1, g.n + 1), x, y))
    with open(coord_path, "w", encoding="utf-8") as co:
        co.write("".join([f"p aux sp co {g.n}\n", *lines]))


# -- native CSV interchange --------------------------------------------------


def _csv_columns(path, names, parsers, what):
    """The named columns of a CSV file's body, each parsed by its parser.

    The header (line 1) names the columns, in any order; other columns are
    ignored.  Returns the rows' line numbers, the columns, and the checks of
    a row for ``_raise_first``.
    """
    buf, line, first, count, odd, start, end = _scan(path, ",")
    header = bytes(buf[: np.argmax(buf == _NL)]).decode("latin-1").split(",")
    if not set(names) <= set(header):
        raise ParseError(f"{path}: expected header {','.join(names)}")
    index = {name: k for k, name in enumerate(header)}  # the last of a repeated name
    rows = np.flatnonzero(line > 1)
    first, count = first[rows], count[rows]
    ok = np.ones(len(rows), dtype=bool)
    columns = []
    for name, parse in zip(names, parsers):
        f = _column(first, count, index[name])
        values, parsed = parse(buf, start[f], end[f])
        ok &= parsed & (count > index[name])
        columns.append(values)
    checks = [(line, odd, ParseError, _ODD_BYTE), (line[rows], ~ok, ParseError, f"bad {what} row")]
    return line[rows], columns, checks


def load_csv(vertices_path, edges_path) -> GeometricGraph:
    """Load the native interchange pair vertices.csv (id,x,y) and
    edges.csv (u,v,weight,level)."""
    vertices_path = Path(vertices_path)
    edges_path = Path(edges_path)
    _, (vid, x, y), checks = _csv_columns(
        vertices_path, ("id", "x", "y"), (_ints, _floats, _floats), "vertex"
    )
    _raise_first(vertices_path, checks)
    if len(sorted_unique(vid)) != len(vid):
        raise ValidationError(f"{vertices_path}: duplicate vertex id")
    order = np.argsort(vid, kind="stable")
    ids = vid[order]
    xy = np.column_stack([x[order], y[order]])

    rows, (u, v, w, lv), checks = _csv_columns(
        edges_path, ("u", "v", "weight", "level"), (_ints, _ints, _floats, _ints), "edge"
    )
    iu, u_known = index_of(ids, u)
    iv, v_known = index_of(ids, v)
    missing = np.where(u_known, v, u)
    checks.append((rows, ~(u_known & v_known), ValidationError, lambda i: f"unknown vertex {missing[i]}"))
    _raise_first(edges_path, checks)
    g = GeometricGraph(xy, iu, iv, w, lv, meta={"source": str(vertices_path)})
    dupes = g.duplicate_coordinate_groups()
    if dupes:
        g.meta["duplicate_coordinate_vertices"] = dupes
    return g


def save_csv(g: GeometricGraph, vertices_path, edges_path):
    """Write the native interchange pair: floats by ``repr``, CRLF line ends."""
    x, y = (map(repr, g.xy[:, k].tolist()) for k in (0, 1))
    lines = (f"{i},{a},{b}\r\n" for i, a, b in zip(range(g.n), x, y))
    with open(vertices_path, "w", newline="", encoding="utf-8") as handle:
        handle.write("".join(["id,x,y\r\n", *lines]))
    columns = g.edge_u.tolist(), g.edge_v.tolist(), map(repr, g.edge_weight.tolist()), g.edge_level.tolist()
    lines = (f"{a},{b},{c},{d}\r\n" for a, b, c, d in zip(*columns))
    with open(edges_path, "w", newline="", encoding="utf-8") as handle:
        handle.write("".join(["u,v,weight,level\r\n", *lines]))


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
    if not radius > 0:
        raise ConfigError("radius must be > 0")
    rng = np.random.default_rng(seed)
    xy = rng.random((n, 2))
    edges = []
    for eu, ev in grid_join(xy, xy, radius):
        first = eu < ev
        eu, ev = eu[first], ev[first]
        d = xy[eu] - xy[ev]
        d2 = d[:, 0] ** 2 + d[:, 1] ** 2
        keep = d2 <= radius * radius
        edges.append((eu[keep], ev[keep], np.sqrt(d2[keep])))
    eu, ev, ew = (np.concatenate(c) for c in zip(*edges))
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
