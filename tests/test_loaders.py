"""The array loaders against the line-by-line loaders they replaced.

``scalar_loaders`` keeps the old ``load_dimacs``/``load_csv``.  On valid
files both give the same graph, edge order and ``meta``; on malformed files
both raise the same class and message.  The deliberate differences: CSV
errors name physical lines, not csv rows, and a non-ASCII or control byte
outside a comment is a ParseError at its line.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import roadgeom as rg
import scalar_loaders
from roadgeom.errors import ParseError, ValidationError


def write(path, text):
    path.write_bytes(text.encode("utf-8"))
    return path


def assert_identical(g, want):
    for name in ("xy", "edge_u", "edge_v", "edge_weight", "edge_level"):
        a, b = getattr(g, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name
    assert g.meta == want.meta
    assert [type(v) for v in g.meta.values()] == [type(v) for v in want.meta.values()]


def raised(load, *paths):
    with pytest.raises((ParseError, ValidationError)) as info:
        load(*paths)
    return info.type, str(info.value)


# -- DIMACS ----------------------------------------------------------------------

GR_HEAD = "c road graph\np sp 3 4\nc arcs follow\n\na 1 2 5\na 2 1 5\n"
CO_OK = "c coordinates\np aux sp co 3\nv 1 0 0\n\nv 2 10 0\nv 3 0 10\n"

# (name, .gr text, .co text); every error follows valid lines and comments.
DIMACS_CASES = [
    ("duplicate problem line", GR_HEAD + "p sp 3 4\na 2 3 1\na 3 2 1\n", CO_OK),
    ("missing problem line", "c none\na 1 2 5\na 2 1 5\n", CO_OK),
    ("problem line too short", "c x\n\np sp 3\na 1 2 5\n", CO_OK),
    ("problem line not sp", "c x\np max 3 2\na 1 2 5\na 2 1 5\n", CO_OK),
    ("problem line with a long kind", "c x\np spx 3 2\n", CO_OK),
    ("problem line counts", "c x\np sp 3 two\na 1 2 5\n", CO_OK),
    ("arc with three fields", GR_HEAD + "a 2 3\na 3 2 1\n", CO_OK),
    ("arc with five fields", GR_HEAD + "a 2 3 1 1\na 3 2 1\n", CO_OK),
    ("non-numeric tail", GR_HEAD + "a 2 x 1\na 3 2 1\n", CO_OK),
    ("non-numeric head", GR_HEAD + "a 2.0 3 1\na 3 2 1\n", CO_OK),
    ("non-numeric weight", GR_HEAD + "a 2 3 1.5.1\na 3 2 1\n", CO_OK),
    ("bare sign", GR_HEAD + "a + 3 1\na 3 2 1\n", CO_OK),
    ("negative weight", GR_HEAD + "a 2 3 -1\na 3 2 1\n", CO_OK),
    ("infinite weight", GR_HEAD + "a 2 3 inf\na 3 2 1\n", CO_OK),
    ("nan weight", GR_HEAD + "a 2 3 nan\na 3 2 1\n", CO_OK),
    ("self-loop", GR_HEAD + "a 2 2 1\na 3 2 1\n", CO_OK),
    ("unknown directive", GR_HEAD + "e 2 3 1\na 3 2 1\n", CO_OK),
    ("long unknown directive", GR_HEAD + "arc 2 3 1\na 3 2 1\n", CO_OK),
    ("too few arcs", GR_HEAD + "a 2 3 1\n", CO_OK),
    ("too many arcs", GR_HEAD + "a 2 3 1\na 3 2 1\na 3 1 1\n", CO_OK),
    ("earliest line wins", GR_HEAD + "a 2 3 -1\nq\na 3 3 x\n", CO_OK),
    ("non-numeric before a self-loop", GR_HEAD + "a 2 3 w\na 3 3 1\n", CO_OK),
    ("coordinate line too short", GR_HEAD + "a 2 3 1\na 3 2 1\n", "c x\nv 1 0 0\nv 2 10\nv 3 0 10\n"),
    ("coordinate directive", GR_HEAD + "a 2 3 1\na 3 2 1\n", "c x\nv 1 0 0\nw 2 10 0\nv 3 0 10\n"),
    ("float coordinate", GR_HEAD + "a 2 3 1\na 3 2 1\n", "c x\nv 1 0 0\nv 2 1.5 0\nv 3 0 10\n"),
    ("repeated vertex id", GR_HEAD + "a 2 3 1\na 3 2 1\n", "c x\nv 1 0 0\nv 2 1 0\n\nv 1 0 10\nv 1 5 5\n"),
    ("repeated id before a bad line", GR_HEAD + "a 2 3 1\na 3 2 1\n", "v 7 0 0\nv 7 1 0\nv 2 x 0\n"),
    ("too few vertices", GR_HEAD + "a 2 3 1\na 3 2 1\n", "c x\nv 1 0 0\nv 2 10 0\n"),
    ("too many vertices", GR_HEAD + "a 2 3 1\na 3 2 1\n", CO_OK + "v 4 1 1\n"),
    ("unknown tail", GR_HEAD + "a 2 9 1\na 3 2 1\n", CO_OK),
    ("unknown head", GR_HEAD + "a 2 3 1\na 8 9 1\n", CO_OK),
    ("gr errors before co errors", GR_HEAD + "a 2 3 -1\na 3 2 1\n", "v 1 x 0\n"),
]


@pytest.mark.parametrize("name, gr, co", DIMACS_CASES, ids=[c[0] for c in DIMACS_CASES])
def test_dimacs_errors_match_the_scalar_loader(tmp_path, name, gr, co):
    paths = write(tmp_path / "t.gr", gr), write(tmp_path / "t.co", co)
    want = raised(scalar_loaders.load_dimacs, *paths)
    assert raised(rg.load_dimacs, *paths) == want


# -- CSV -------------------------------------------------------------------------

V_OK = "id,x,y\n3,0.0,0.0\n\n1,2.5,0\n2,0,1e1\n"
E_HEAD = "u,v,weight,level\n1,2,1.5,4\n\n"

# (name, vertices.csv text, edges.csv text); blank lines precede the errors.
CSV_CASES = [
    ("empty vertices file", "", E_HEAD),
    ("vertex header only id", "id,x\n1,0\n", E_HEAD),
    ("non-numeric id", V_OK + "\nv4,1,1\n", E_HEAD),
    ("float id", V_OK + "4.0,1,1\n", E_HEAD),
    ("empty x", V_OK + "\n4,,1\n", E_HEAD),
    ("short vertex row", V_OK + "4,1\n", E_HEAD),
    ("spaced number", V_OK + "4,1 2,1\n", E_HEAD),
    ("duplicate vertex id", V_OK + "\n1,5,5\n", E_HEAD),
    ("edge header lacks level", V_OK, "u,v,weight\n1,2,1.5\n"),
    ("non-numeric weight", V_OK, E_HEAD + "2,3,heavy,4\n"),
    ("non-numeric level", V_OK, E_HEAD + "2,3,1,4.0\n"),
    ("short edge row", V_OK, E_HEAD + "2,3,1\n"),
    ("unknown vertex", V_OK, E_HEAD + "\n2,9,1,4\n"),
    ("unknown vertex before a bad row", V_OK, E_HEAD + "2,9,1,4\n2,3,x,4\n"),
    ("bad row before an unknown vertex", V_OK, E_HEAD + "2,3,x,4\n2,9,1,4\n"),
    ("self-loop edge", V_OK, E_HEAD + "2,2,1,4\n"),
    ("negative weight", V_OK, E_HEAD + "2,3,-1,4\n"),
    ("infinite weight", V_OK, E_HEAD + "2,3,inf,4\n"),
    ("level out of range", V_OK, E_HEAD + "2,3,1,7\n"),
    ("parallel edge", V_OK, E_HEAD + "2,1,3,4\n"),
]


def physical_line_message(message, text):
    """The scalar loader's message with its csv row number (header = 1,
    empty lines skipped) replaced by the physical line number."""
    found = re.search(r":(\d+): ", message)
    if not found:
        return message
    rows = [i for i, line in enumerate(text.split("\n"), 1) if line and i > 1]
    line = rows[int(found.group(1)) - 2]
    return message[: found.start()] + f":{line}: " + message[found.end() :]


@pytest.mark.parametrize("name, vertices, edges", CSV_CASES, ids=[c[0] for c in CSV_CASES])
def test_csv_errors_match_the_scalar_loader(tmp_path, name, vertices, edges):
    paths = write(tmp_path / "v.csv", vertices), write(tmp_path / "e.csv", edges)
    cls, message = raised(scalar_loaders.load_csv, *paths)
    text = vertices if message.startswith(str(paths[0])) else edges
    assert raised(rg.load_csv, *paths) == (cls, physical_line_message(message, text))


def test_csv_errors_name_physical_lines(tmp_path):
    # A bad row on line 5, after two blank lines: the csv row count is 3.
    paths = write(tmp_path / "v.csv", "id,x,y\n0,0,0\n\n\nbad\n"), write(tmp_path / "e.csv", "u,v,weight,level\n")
    assert raised(scalar_loaders.load_csv, *paths)[1] == f"{paths[0]}:3: bad vertex row"
    assert raised(rg.load_csv, *paths) == (ParseError, f"{paths[0]}:5: bad vertex row")


def test_csv_header_may_reorder_and_extend_columns(tmp_path):
    # A repeated name reads its last column, as csv.DictReader does.
    paths = (
        write(tmp_path / "v.csv", "y,name,id,x,x\n0,a,1,9,0\n1,b,2,9,0\n"),
        write(tmp_path / "e.csv", "level,weight,v,u,note\n2,1.5,2,1,x\n"),
    )
    assert_identical(rg.load_csv(*paths), scalar_loaders.load_csv(*paths))


@pytest.mark.parametrize(
    "line",
    ["a 2 3 ١\n", "a 2 3 1\x0c\n", "a 2 3 1\xe9\n", "a\x002 3 1\n"],
    ids=["unicode digit", "form feed", "latin letter", "nul"],
)
def test_odd_bytes_are_parse_errors_at_their_line(tmp_path, line):
    gr = write(tmp_path / "t.gr", GR_HEAD + line + "a 3 2 1\n")
    co = write(tmp_path / "t.co", CO_OK)
    assert raised(rg.load_dimacs, gr, co) == (ParseError, f"{gr}:7: non-ASCII or control byte")


def test_a_line_of_control_bytes_is_not_blank(tmp_path):
    gr = write(tmp_path / "t.gr", GR_HEAD + "\x0c\x00\na 2 3 1\na 3 2 1\n")
    co = write(tmp_path / "t.co", CO_OK)
    assert raised(rg.load_dimacs, gr, co) == (ParseError, f"{gr}:7: non-ASCII or control byte")


def test_comments_may_hold_any_byte(tmp_path):
    gr = tmp_path / "t.gr"
    gr.write_bytes(b"c caf\xc3\xa9 \xff\x01\np sp 2 2\na 1 2 5\na 2 1 5\n")
    co = write(tmp_path / "t.co", "c é\nv 1 0 0\nv 2 3 4\n")
    assert rg.load_dimacs(gr, co).m == 1


def test_integers_have_at_most_18_digits(tmp_path):
    # int() takes any length; the arrays hold int64.
    co = write(tmp_path / "t.co", CO_OK)
    gr = write(tmp_path / "t.gr", "p sp 3 1234567890123456789\n")
    assert raised(rg.load_dimacs, gr, co) == (ParseError, f"{gr}:1: bad problem line counts")
    gr = write(tmp_path / "t.gr", "p sp 3 000000000000000000002\na 1 2 1\na 2 1 1\n")
    assert raised(rg.load_dimacs, gr, co) == (ParseError, f"{gr}:1: bad problem line counts")
    gr = write(tmp_path / "t.gr", "p sp 3 2\na 1 -000000000000000002 1\na 2 1 1\n")
    assert raised(rg.load_dimacs, gr, co) == (ValidationError, f"{gr}: arc references unknown vertex -2")


def test_csv_header_must_name_every_column(tmp_path):
    # The scalar loader's proper-subset test let this header through, and
    # the row lookup then raised KeyError.
    v = write(tmp_path / "v.csv", "id,x,z\n1,0,0\n")
    e = write(tmp_path / "e.csv", "u,v,weight,level\n")
    with pytest.raises(KeyError):
        scalar_loaders.load_csv(v, e)
    assert raised(rg.load_csv, v, e) == (ParseError, f"{v}: expected header id,x,y")


def test_invalid_utf8_in_a_csv_row(tmp_path):
    v = tmp_path / "v.csv"
    v.write_bytes(b"id,x,y\n1,0,0\n2,\xff,0\n")
    e = write(tmp_path / "e.csv", "u,v,weight,level\n")
    assert raised(rg.load_csv, v, e) == (ParseError, f"{v}:3: non-ASCII or control byte")


# -- valid files -----------------------------------------------------------------

NEWLINES = st.sampled_from(["\n", "\r\n", "\r"])
COMMENTS = st.lists(st.sampled_from(["c", "c note", "  c\tindented", "", "   ", "ccc 1 2"]), max_size=3)


@st.composite
def graphs(draw):
    n = draw(st.integers(min_value=1, max_value=9))
    # Few distinct coordinates, so that duplicates are common.
    coord = st.sampled_from([-1.5, 0.0, 0.25, 2.0, 1e-6, 123.456789])
    pts = [(draw(coord), draw(coord)) for _ in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    weight = st.one_of(
        st.integers(0, 10**6).map(float),
        st.floats(min_value=0, max_value=1e9, allow_nan=False, allow_infinity=False),
    )
    edges = [(u, v, draw(weight), draw(st.integers(1, 4))) for u, v in chosen]
    return rg.GeometricGraph.build(pts, edges)


def with_extras(draw, lines, newline):
    """``lines`` with drawn comment or blank lines between them, joined by ``newline``."""
    out = []
    for line in lines:
        out += draw(COMMENTS)
        out.append(line)
    return newline.join(out + draw(COMMENTS)) + draw(st.sampled_from(["", newline]))


@settings(max_examples=80, deadline=None)
@given(g=graphs(), data=st.data())
def test_dimacs_round_trip_matches_the_scalar_loader(tmp_path_factory, g, data):
    tmp = tmp_path_factory.mktemp("dimacs")
    rg.save_dimacs(g, tmp / "s.gr", tmp / "s.co")
    gr = (tmp / "s.gr").read_text().splitlines()
    co = (tmp / "s.co").read_text().splitlines()
    # Parallel arcs: repeats of drawn arcs with drawn weights, the header
    # recounted; then the arcs and vertex lines in drawn orders.
    arcs = gr[1:]
    for line in data.draw(st.lists(st.sampled_from(arcs), max_size=4)) if arcs else ():
        _, u, v, _ = line.split()
        w = data.draw(st.sampled_from(["0", "1", "7.25", "1e3", "3"]))
        arcs.append(f"a {u} {v} {w}" if data.draw(st.booleans()) else f"a {v} {u} {w}")
    arcs = data.draw(st.permutations(arcs))
    head = f"p sp {g.n} {len(arcs)}"
    vertices = data.draw(st.permutations(co[1:]))
    newline = data.draw(NEWLINES)
    write(tmp / "t.gr", with_extras(data.draw, [head, *arcs], newline))
    write(tmp / "t.co", with_extras(data.draw, [co[0], *vertices], newline))
    paths = tmp / "t.gr", tmp / "t.co"
    assert_identical(rg.load_dimacs(*paths), scalar_loaders.load_dimacs(*paths))


@settings(max_examples=80, deadline=None)
@given(g=graphs(), data=st.data())
def test_csv_round_trip_matches_the_scalar_loader(tmp_path_factory, g, data):
    tmp = tmp_path_factory.mktemp("csv")
    rg.save_csv(g, tmp / "s.csv", tmp / "se.csv")
    newline = data.draw(NEWLINES)
    blank = st.lists(st.just(""), max_size=2)
    for source, target, shuffle in (("s.csv", "v.csv", True), ("se.csv", "e.csv", False)):
        head, *rows = (tmp / source).read_text().splitlines()
        lines = [head]
        # Vertex rows in any order: the loader sorts them by id.
        for row in data.draw(st.permutations(rows)) if shuffle else rows:
            lines += data.draw(blank) + [row]
        write(tmp / target, newline.join(lines) + newline)
    got = rg.load_csv(tmp / "v.csv", tmp / "e.csv")
    assert_identical(got, scalar_loaders.load_csv(tmp / "v.csv", tmp / "e.csv"))
    assert got == g


@pytest.mark.parametrize("fixture", ["gotham_small", "gotham_medium", "rgg_small", "rgg_medium", "hub_small"])
def test_fixtures_load_as_the_scalar_loader_does(tmp_path, request, fixture):
    g = request.getfixturevalue(fixture)
    rg.save_dimacs(g, tmp_path / "g.gr", tmp_path / "g.co")
    dimacs = tmp_path / "g.gr", tmp_path / "g.co"
    assert_identical(rg.load_dimacs(*dimacs), scalar_loaders.load_dimacs(*dimacs))
    rg.save_csv(g, tmp_path / "v.csv", tmp_path / "e.csv")
    csv = tmp_path / "v.csv", tmp_path / "e.csv"
    got = rg.load_csv(*csv)
    assert_identical(got, scalar_loaders.load_csv(*csv))
    assert got == g


def half_micro_degree_path():
    """Coordinates halfway between micro-degrees, some negative: ``round`` ties."""
    x = (np.arange(-8, 8) + 0.5) * 1e-6
    edges = [(k, k + 1, 2.0 if k % 2 else 0.25 * k, 4) for k in range(15)]
    return rg.GeometricGraph.build(np.column_stack([x, x[::-1]]), edges)


@pytest.mark.parametrize("fixture", ["gotham_small", "rgg_small", "hub_small", None])
def test_savers_write_the_scalar_writers_bytes(tmp_path, request, fixture):
    if fixture is None:
        graphs = [half_micro_degree_path()]
    else:
        g = request.getfixturevalue(fixture)
        # Centred, so coordinates go negative; every other weight integral.
        w = g.edge_weight.copy()
        w[::2] = np.round(w[::2] * 10)
        graphs = [g, rg.GeometricGraph(g.xy - g.xy.mean(axis=0), g.edge_u, g.edge_v, w, g.edge_level)]
    assert any(not x.is_integer() for g in graphs for x in g.edge_weight.tolist())
    assert any(x.is_integer() for g in graphs for x in g.edge_weight.tolist())
    assert any(g.xy.min() < 0 for g in graphs)
    for g in graphs:
        for name in ("save_dimacs", "save_csv"):
            getattr(rg, name)(g, tmp_path / "got1", tmp_path / "got2")
            getattr(scalar_loaders, name)(g, tmp_path / "want1", tmp_path / "want2")
            for k in "12":
                assert (tmp_path / f"got{k}").read_bytes() == (tmp_path / f"want{k}").read_bytes(), name
