"""The benchmark's three workloads: inputs, pipeline stages, queries, checks.

Each workload is a seeded generator whose graph is written to files, a list
of stages (one call into a public roadgeom function each), an optional
closed-loop query phase, and the checks that decide whether each of those
calls produced a correct result.  The checks never run inside a timed
region.

Why these three:

* ``gotham-route`` (grid plus expressway chords, DIMACS): separators and
  disks dominate, crossings is small; the only build-once, query-many
  workload and the only one that touches ``routing``.
* ``rgg-planarize`` (random geometric graph, DIMACS): crossings and
  ``planarize`` dominate and set peak memory; it never calls separators,
  routing, augment or arrangement, so changes there must not move it.
* ``hubspoke-locality`` (grid, hub cluster and long spokes, native CSV): the
  only workload that touches ``augment`` and ``arrangement``; its heavy
  exceptional set loads the separators differently.
"""

from __future__ import annotations

import hashlib
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from roadgeom import arrangement, augment, crossings, disks, graphs, routing, separators

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
import oracles  # noqa: E402  (the repository's brute-force reference)

QUERIES = 40
MAX_SITES = 400
EXCEPTIONAL_K = 8
NEIGHBORLY_CUTOFF = 250
WINDOW_VERTICES = 60
ARRANGEMENT_TOL = 1e-9


class CheckFailed(Exception):
    """An output of the program is wrong."""


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Stage:
    name: str  # "<module>.<function>", also the span name
    key: str  # where the output is stored for later stages and checks
    call: Callable[[dict], object]
    checks: tuple = ()  # callables taking the results dict; raise on failure


@dataclass(frozen=True)
class Workload:
    name: str
    fmt: str  # "dimacs" or "csv"
    sizes: dict  # scale -> generator arguments (without the seed)
    generator: Callable
    stages: tuple
    queries: bool = False  # closed-loop Voronoi queries after the pipeline


# -- input files ---------------------------------------------------------------


# format -> (file names, writer, loader); the loader's name is the span name.
FORMATS = {
    "dimacs": (("graph.gr", "graph.co"), graphs.save_dimacs, graphs.load_dimacs),
    "csv": (("vertices.csv", "edges.csv"), graphs.save_csv, graphs.load_csv),
}


def input_paths(workload, directory):
    return [Path(directory) / name for name in FORMATS[workload.fmt][0]]


def save_input(workload, g, directory):
    FORMATS[workload.fmt][1](g, *input_paths(workload, directory))


def load_input(workload, directory):
    return FORMATS[workload.fmt][2](*input_paths(workload, directory))


def load_span_name(workload):
    return f"graphs.{FORMATS[workload.fmt][2].__name__}"


def load_signature(g, fmt):
    """Digest of what a faithful load must reproduce from the written files.

    DIMACS rounds coordinates to micro-degrees and carries no levels.
    """
    if fmt == "dimacs":
        coords = np.round(g.xy / graphs.COORD_SCALE).astype(np.int64)
        return fingerprint((g.n, g.m, coords, g.edge_u, g.edge_v, g.edge_weight))
    return fingerprint((g.n, g.m, g.xy, g.edge_u, g.edge_v, g.edge_weight, g.edge_level))


def fingerprint(obj) -> str:
    """Content digest of a result, used to compare repeats of one run."""
    h = hashlib.blake2b(digest_size=16)
    _feed(h, obj)
    return h.hexdigest()


def _feed(h, obj):
    if isinstance(obj, np.ndarray):
        h.update(f"a{obj.dtype}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, (list, tuple)):
        h.update(b"[%d" % len(obj))
        for x in obj:
            _feed(h, x)
    elif isinstance(obj, dict):
        h.update(b"{%d" % len(obj))
        for k, v in obj.items():
            _feed(h, k)
            _feed(h, v)
    elif isinstance(obj, (str, int, float, bool, type(None), np.generic)):
        h.update(repr(obj).encode())
    else:
        # Library objects: their public state; underscore fields are caches.
        h.update(type(obj).__name__.encode())
        _feed(h, {k: v for k, v in vars(obj).items() if not k.startswith("_")})


# -- checks ----------------------------------------------------------------------


def _pair_keys(pairs, n):
    return np.asarray(pairs, dtype=np.int64).reshape(-1, 2) @ np.array([n, 1], dtype=np.int64)


def check_crossing_charges(r):
    """Each proper crossing's two near endpoints own intersecting disks
    (the invariant ``roadgeom crossings`` asserts)."""
    g, proper = r["g"], crossings.proper_only(r["records"])
    if not proper:
        return
    edges = np.array([(c.e1, c.e2) for c in proper], dtype=np.int64)
    pts = np.array([c.point for c in proper], dtype=np.float64)
    near = []
    for col in (0, 1):
        u, v = g.edge_u[edges[:, col]], g.edge_v[edges[:, col]]
        du = ((g.xy[u] - pts) ** 2).sum(axis=1)
        dv = ((g.xy[v] - pts) ** 2).sum(axis=1)
        near.append(np.where((du < dv) | ((du == dv) & (u <= v)), u, v))
    a, b = np.minimum(*near), np.maximum(*near)
    ok = (a == b) | np.isin(_pair_keys(np.column_stack([a, b]), g.n), _pair_keys(r["system"].pairs, g.n))
    require(ok.all(), f"{int((~ok).sum())} crossings charge non-intersecting disks")


def check_subgraph(r):
    """Every graph edge joins intersecting disks (``roadgeom ply``'s check)."""
    g, system = r["g"], r["system"]
    require(len(system) == g.n, "disk system size differs from n")
    edges = np.column_stack([g.edge_u, g.edge_v])
    missing = ~np.isin(_pair_keys(edges, g.n), _pair_keys(system.pairs, g.n))
    require(not missing.any(), f"{int(missing.sum())} edges missing from the disk pairs")


def _window(r):
    """Seeded box around a point on one of the longest edges, holding about
    WINDOW_VERTICES vertices; returns (vertex ids, edge ids) inside it."""
    g = r["g"]
    rng = np.random.default_rng([r["seed"], 3])
    longest = np.argsort(-g.edge_lengths(), kind="stable")[:8]
    e = int(rng.choice(longest))
    t = float(rng.uniform(0.2, 0.8))
    c = g.xy[g.edge_u[e]] * (1 - t) + g.xy[g.edge_v[e]] * t
    cheb = np.abs(g.xy - c).max(axis=1)
    h = float(np.partition(cheb, min(WINDOW_VERTICES, g.n - 1))[min(WINDOW_VERTICES, g.n - 1)])
    lo, hi = c - h, c + h
    x1, y1, x2, y2 = g.segment_arrays()
    hits = (
        (np.maximum(x1, x2) >= lo[0]) & (np.minimum(x1, x2) <= hi[0])
        & (np.maximum(y1, y2) >= lo[1]) & (np.minimum(y1, y2) <= hi[1])
    )
    return np.flatnonzero(cheb <= h), np.flatnonzero(hits)


def check_crossing_window(r):
    """find_crossings equals the exact all-pairs oracle inside the window."""
    g = r["g"]
    _, edges = _window(r)
    ends = np.unique(np.concatenate([g.edge_u[edges], g.edge_v[edges]]))
    local = np.searchsorted(ends, np.stack([g.edge_u[edges], g.edge_v[edges]]))
    sub = graphs.GeometricGraph(
        g.xy[ends], local[0], local[1], g.edge_weight[edges], g.edge_level[edges]
    )
    want = {(int(edges[i]), int(edges[j]), kind) for (i, j), (kind, _) in oracles.all_pairs_crossings(sub).items()}
    inside = set(edges.tolist())
    got = {(c.e1, c.e2, c.kind) for c in r["records"] if c.e1 in inside and c.e2 in inside}
    require(got == want, f"window of {len(edges)} edges: {len(got ^ want)} crossings differ from the oracle")


def check_pair_window(r):
    """The disk pair index equals the all-pairs oracle inside the window."""
    vertices, _ = _window(r)
    sub = r["system"].subset(vertices)
    got = {(int(i), int(j)) for i, j in sub.pairs}
    want = oracles.all_pairs_disk_pairs(sub)
    require(got == want, f"window of {len(vertices)} disks: {len(got ^ want)} pairs differ from the oracle")


def check_ply(r):
    ply, n = r["ply"], r["g"].n
    require(len(ply.center_ply) == n, "center ply has the wrong length")
    require(n == 0 or ply.center_ply.min() >= 1, "a center is not covered by its own disk")
    require(n == 0 or int(ply.center_ply.max()) == ply.max_center_ply, "max center ply disagrees")


def check_charges(r):
    audit = r["charges"]
    total = int(audit.containment.sum() + audit.tall.sum())
    require(total == len(r["system"].pairs), "charges do not account for every pair exactly once")


def check_exceptional(r):
    split = r["exceptional"]
    require(split.residual_max_center_ply <= EXCEPTIONAL_K, "residual ply exceeds k")
    require(len(set(split.removed)) == len(split.removed), "a disk was removed twice")


def check_planarized(r):
    planar, proper = r["planar"], len(crossings.proper_only(r["records"]))
    require(len(planar.crossing_vertices) == proper, "crossing vertex count differs from proper crossings")
    require(planar.graph.n == r["g"].n + proper, "planarized vertex count is wrong")


def check_tree_labels(r):
    label = r["tree"].label
    require(len(label) == r["g"].n and bool((label >= 0).all()), "tree labels do not cover every vertex")


def check_shortcut_degree(r):
    origins = np.array([o for o, _, _ in r["augmented"].shortcuts], dtype=np.int64)
    require(len(origins) == 0 or np.bincount(origins).max() <= 4, "a vertex gained more than 4 shortcuts")


def check_clustering(r):
    require(len(r["clustering"].component_counts) == r["g"].n, "clustering report has the wrong length")


def _rings(arr):
    return {c: [(arr.vertices[v].circles, arr.vertices[v].point) for v in ring] for c, ring in arr.rings.items()}


def check_arrangements(r):
    """Inductive equals naive ring by ring (points within 1e-9); both pass Euler."""
    a, b = _rings(r["inductive"]), _rings(r["naive"])
    require(a.keys() == b.keys(), "arrangements cover different circles")
    for c in a:
        require(len(a[c]) == len(b[c]), f"circle {c}: ring lengths differ")
        for (pa, xa), (pb, xb) in zip(a[c], b[c]):
            require(
                pa == pb and abs(xa[0] - xb[0]) <= ARRANGEMENT_TOL and abs(xa[1] - xb[1]) <= ARRANGEMENT_TOL,
                f"circle {c}: rings differ",
            )
    require(r["naive"].euler_check(), "naive arrangement fails the Euler relation")


def check_audit(r):
    require(r["inductive"].euler_check(), "inductive arrangement fails the Euler relation")


def check_neighborly(r):
    rep = r["neighborly"]
    require(rep.max_hops_augmented <= rep.max_hops_plain, "shortcuts lengthened a hop distance")


# -- workloads ---------------------------------------------------------------------


def _s(name, key, call, *checks):
    return Stage(name, key, call, checks)


FIND = _s(
    "crossings.find_crossings", "records", lambda r: crossings.find_crossings(r["g"]),
    check_crossing_charges, check_crossing_window,
)
DISKS = _s(
    "disks.build_disk_system", "system", lambda r: disks.build_disk_system(r["g"]),
    check_subgraph, check_pair_window,
)
PLY = _s("disks.ply_report", "ply", lambda r: disks.ply_report(r["system"]), check_ply)
PLANARIZE = _s(
    "crossings.planarize", "planar", lambda r: crossings.planarize(r["g"], r["records"]), check_planarized
)
DECOMPOSE = _s(
    "separators.build_decomposition", "tree",
    lambda r: separators.build_decomposition(r["system"], seed=r["seed"]), check_tree_labels,
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "gotham-route",
            "dimacs",
            {"full": (64, 8), "toy": (16, 2)},
            graphs.gen_gotham,
            (FIND, DISKS, PLY, DECOMPOSE),
            queries=True,
        ),
        Workload(
            "rgg-planarize",
            "dimacs",
            {"full": (8192, 1.5 / 8192**0.5), "toy": (400, 1.5 / 20)},
            graphs.gen_random_geometric,
            (
                FIND,
                PLANARIZE,
                DISKS,
                PLY,
                _s("disks.charge_audit", "charges", lambda r: disks.charge_audit(r["system"]), check_charges),
                _s(
                    "disks.exceptional_decomposition", "exceptional",
                    lambda r: disks.exceptional_decomposition(r["system"], k=EXCEPTIONAL_K), check_exceptional,
                ),
            ),
        ),
        Workload(
            "hubspoke-locality",
            "csv",
            {"full": (64, 21), "toy": (16, 9)},
            graphs.gen_hub_spoke,
            (
                FIND,
                PLANARIZE,
                _s("augment.grid_augment", "augmented", lambda r: augment.grid_augment(r["planar"]), check_shortcut_degree),
                DISKS,
                PLY,
                _s("augment.clustering_check", "clustering", lambda r: augment.clustering_check(r["system"]), check_clustering),
                _s("arrangement.build_naive", "naive", lambda r: arrangement.build_naive(r["system"])),
                _s(
                    "arrangement.build_inductive", "inductive",
                    lambda r: arrangement.build_inductive(r["system"], r["clustering"]), check_arrangements,
                ),
                _s(
                    "arrangement.audit", "audit",
                    lambda r: (arrangement.complexity_audit(r["inductive"], r["system"]), r["inductive"].euler_check()),
                    check_audit,
                ),
                DECOMPOSE,
                _s(
                    "augment.neighborly_check", "neighborly",
                    lambda r: augment.neighborly_check(r["augmented"], r["system"], cutoff=NEIGHBORLY_CUTOFF),
                    check_neighborly,
                ),
            ),
        ),
    )
}


def generate(workload, seed, scale):
    return workload.generator(*workload.sizes[scale], seed)


def query_sites(n, seed):
    """The run's closed-loop queries: seeded site sets of 1..MAX_SITES vertices."""
    rng = np.random.default_rng([seed, 7])
    out = []
    for _ in range(QUERIES):
        k = int(rng.integers(1, min(MAX_SITES, n) + 1))
        out.append(np.sort(rng.choice(n, size=k, replace=False)))
    return out


def check_voronoi(g, via, direct):
    require(np.array_equal(via.label, direct.label), "tree Voronoi labels differ from the direct run")
    require(np.array_equal(via.dist, direct.dist), "tree Voronoi distances differ from the direct run")


# -- per-layer counts ----------------------------------------------------------------


COUNT_NAMES = (
    "graphs.input_bytes", "graphs.n", "graphs.m",
    "crossings.records", "crossings.proper", "crossings.planar_vertices",
    "disks.pairs", "disks.radius_bands", "disks.max_center_ply", "disks.exceptional_removed",
    "separators.nodes", "separators.depth", "separators.retries", "separators.useful_per_attempt",
    "separators.cut_total", "separators.exceptional_total",
    "routing.queries", "routing.sites", "routing.tree_nodes_used",
    "augment.shortcuts", "augment.bfs_searches", "augment.max_hops_augmented",
    "augment.max_hops_plain", "augment.truncated",
    "arrangement.vertices", "arrangement.edges", "arrangement.faces",
)


def layer_counts(r, input_bytes, query_results):
    """Work counts of one pipeline run and its queries, keyed by COUNT_NAMES."""
    g = r["g"]
    records = r.get("records", [])
    system = r.get("system")
    radii = system.radii[system.radii > 0] if system is not None else np.empty(0)
    tree = r.get("tree")
    internal = tree.internal_nodes() if tree is not None else []
    retries = sum(nd.separator.retries for nd in internal)
    aug = r.get("augmented")
    rep = r.get("neighborly")
    arr = r.get("inductive")
    return {
        "graphs.input_bytes": input_bytes,
        "graphs.n": g.n,
        "graphs.m": g.m,
        "crossings.records": len(records),
        "crossings.proper": len(crossings.proper_only(records)),
        "crossings.planar_vertices": r["planar"].graph.n if "planar" in r else 0,
        "disks.pairs": len(system.pairs) if system is not None else 0,
        "disks.radius_bands": len(np.unique(np.floor(np.log2(radii)))),
        "disks.max_center_ply": r["ply"].max_center_ply if "ply" in r else 0,
        "disks.exceptional_removed": len(r["exceptional"].removed) if "exceptional" in r else 0,
        "separators.nodes": len(tree) if tree is not None else 0,
        "separators.depth": tree.depth() if tree is not None else 0,
        "separators.retries": retries,
        "separators.useful_per_attempt": len(internal) / (len(internal) + retries) if internal else 0.0,
        "separators.cut_total": sum(len(nd.separator.cut) for nd in internal),
        "separators.exceptional_total": sum(len(nd.separator.exceptional) for nd in internal),
        "routing.queries": len(query_results),
        "routing.sites": sum(len(sites) for sites, _ in query_results),
        "routing.tree_nodes_used": sum(_tree_nodes_used(tree, sites) for sites, _ in query_results),
        "augment.shortcuts": len(aug.shortcuts) if aug is not None else 0,
        "augment.bfs_searches": 4 * len(system.pairs) if rep is not None else 0,
        "augment.max_hops_augmented": rep.max_hops_augmented if rep is not None else 0,
        "augment.max_hops_plain": rep.max_hops_plain if rep is not None else 0,
        "augment.truncated": int(rep.augmented_truncated) + int(rep.plain_truncated) if rep is not None else 0,
        "arrangement.vertices": arr.vertex_count if arr is not None else 0,
        "arrangement.edges": arr.edge_count if arr is not None else 0,
        "arrangement.faces": arr.face_count() if arr is not None else 0,
    }


def _tree_nodes_used(tree, sites):
    """Size of the union of root-to-site paths, as voronoi_via_tree builds it."""
    used = set()
    for s in sites:
        used.update(tree.path_to_root(int(tree.label[s])))
    return len(used)


def percentile(values, q):
    """Nearest-rank percentile (q in 0..100) of a non-empty sequence."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]
