"""Command-line interface: per-metric runs and multi-size report sweeps.

Graphs are given either as generator specs (``gotham:side=32,express=4``,
``rgg:n=500,radius=0.08``, ``hubspoke:ring=28,spokes=21``), as DIMACS
``.gr``/``.co`` pairs, or as a directory / ``vertices.csv`` path holding the
native CSV interchange pair.  All outputs are deterministic CSV for a fixed
seed.  Exit codes: 0 ok, 1 usage or configuration, 2 data error,
3 violated invariant.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from pathlib import Path

import numpy as np

from . import arrangement as arrangement_mod
from . import augment as augment_mod
from . import crossings as crossings_mod
from . import disks as disks_mod
from . import routing as routing_mod
from . import separators as separators_mod
from .errors import (
    ConfigError,
    DegeneracyError,
    InvariantViolation,
    ParseError,
    RoadGeomError,
    SeparatorFailure,
    ValidationError,
)
from .graphs import (
    gen_gotham,
    gen_hub_spoke,
    gen_random_geometric,
    load_csv,
    load_dimacs,
)

GENERATORS = ("gotham", "rgg", "hubspoke")


def resolve_graph(spec: str, seed):
    """Build or load the graph named by a CLI graph spec."""
    kind, _, rest = spec.partition(":")
    if kind in GENERATORS:
        allowed = {
            "gotham": {"side", "express"},
            "rgg": {"n", "radius"},
            "hubspoke": {"ring", "spokes"},
        }[kind]
        params = {}
        for item in filter(None, rest.split(",")):
            key, _, value = item.partition("=")
            if not value or key not in allowed:
                raise ConfigError(f"bad generator parameter {item!r} in {spec!r}")
            params[key] = value
        try:
            if kind == "gotham":
                return gen_gotham(int(params["side"]), int(params.get("express", 4)), seed)
            if kind == "rgg":
                return gen_random_geometric(int(params["n"]), float(params["radius"]), seed)
            return gen_hub_spoke(int(params["ring"]), int(params.get("spokes", 21)), seed)
        except KeyError as exc:
            raise ConfigError(f"{spec!r} is missing parameter {exc}") from None
        except ValueError as exc:
            raise ConfigError(f"bad value in {spec!r}: {exc}") from None
    path = Path(spec)
    if path.is_dir():
        return load_csv(path / "vertices.csv", path / "edges.csv")
    if path.suffix == ".gr":
        return load_dimacs(path, path.with_suffix(".co"))
    if path.suffix == ".co":
        return load_dimacs(path.with_suffix(".gr"), path)
    if path.name == "vertices.csv":
        return load_csv(path, path.with_name("edges.csv"))
    raise ConfigError(f"cannot interpret graph spec {spec!r}")


def _writer(args):
    if args.out:
        handle = open(args.out, "w", newline="", encoding="utf-8")
    else:
        handle = sys.stdout
    return handle, csv.writer(handle, lineterminator="\n")


def _close(handle):
    if handle is not sys.stdout:
        handle.close()


def _fmt(x: float) -> str:
    return repr(float(x))


def _checked_crossings(g):
    """find_crossings(g) and its proper rows, whose disk charges are checked."""
    table = crossings_mod.find_crossings(g)
    proper = crossings_mod.proper_only(table)
    if proper:
        disks_mod.check_crossing_charges(g, disks_mod.build_disk_system(g), proper)
    return table, proper


def _checked_system(g):
    """build_disk_system(g), checked to hold every edge as a pair."""
    system = disks_mod.build_disk_system(g)
    disks_mod.check_edges_are_pairs(g, system)
    return system


def _neighborly(g, cutoff):
    planar = crossings_mod.planarize(g, crossings_mod.find_crossings(g))
    aug = augment_mod.grid_augment(planar)
    origins = np.array([o for o, _, _ in aug.shortcuts], dtype=np.int64)
    over = np.flatnonzero(np.bincount(origins) > 4)
    if len(over):
        raise InvariantViolation(f"vertex {over[0]} gained more than 4 shortcuts")
    return augment_mod.neighborly_check(aug, _checked_system(g), cutoff=cutoff)


def _arrangement(g, inductive):
    system = _checked_system(g)
    if inductive:
        arr = arrangement_mod.build_inductive(system, augment_mod.clustering_check(system))
    else:
        arr = arrangement_mod.build_naive(system)
    audit = arrangement_mod.complexity_audit(arr, system)
    if not arr.euler_check():
        raise InvariantViolation("arrangement fails the Euler relation")
    return arr, audit


def cmd_crossings(args) -> int:
    g = resolve_graph(args.graph, args.seed)
    table, proper = _checked_crossings(g)
    handle, w = _writer(args)
    w.writerow(["e1", "e2", "x", "y", "level1", "level2", "kind"])
    for r in table:
        w.writerow([r.e1, r.e2, _fmt(r.point[0]), _fmt(r.point[1]), r.level_pair[0], r.level_pair[1], r.kind])
    hist = crossings_mod.crossing_histogram(proper)
    handle.write(f"# proper_total={len(proper)} degenerate_total={len(table) - len(proper)}\n")
    for (l1, l2), count in sorted(hist.items()):
        handle.write(f"# level_pair_{l1}_{l2}={count}\n")
    _close(handle)
    return 0


def cmd_ply(args) -> int:
    g = resolve_graph(args.graph, args.seed)
    rep = disks_mod.ply_report(_checked_system(g))
    handle, w = _writer(args)
    w.writerow(["n", "max_center_ply", "sqrt_n_th_ply", "max_disk_degree"])
    w.writerow([g.n, rep.max_center_ply, rep.kth_largest_center_ply, rep.max_disk_degree])
    _close(handle)
    return 0


def cmd_decompose(args) -> int:
    g = resolve_graph(args.graph, args.seed)
    system = disks_mod.build_disk_system(g)
    tree = separators_mod.build_decomposition(
        system, delta=args.delta, leaf_threshold=args.leaf, seed=args.seed
    )
    handle, w = _writer(args)
    w.writerow(["node", "depth", "n", "cut", "balance"])
    for nd in tree.nodes:
        cut = 0 if nd.is_leaf else len(nd.separator.cut)
        balance = 0.0 if nd.is_leaf else nd.separator.balance
        w.writerow([nd.id, nd.depth, nd.vertex_count, cut, _fmt(balance)])
    _close(handle)
    return 0


def cmd_sssp(args) -> int:
    g = resolve_graph(args.graph, args.seed)
    result = routing_mod.sssp(g, args.source)
    handle, w = _writer(args)
    w.writerow(["vertex", "dist", "parent"])
    for v in range(g.n):
        d = result.dist[v]
        w.writerow([v, "inf" if np.isinf(d) else _fmt(d), int(result.parent[v])])
    _close(handle)
    return 0


def _parse_sites(spec, g, seed):
    if spec.startswith("random:"):
        k = int(spec.split(":", 1)[1])
        if not 1 <= k <= g.n:
            raise ConfigError(f"random site count {k} out of range 1..{g.n}")
        rng = np.random.default_rng(seed)
        return sorted(int(s) for s in rng.choice(g.n, size=k, replace=False))
    try:
        return [int(tok) for tok in spec.split(",") if tok]
    except ValueError:
        raise ConfigError(f"bad site list {spec!r}") from None


def cmd_voronoi(args) -> int:
    g = resolve_graph(args.graph, args.seed)
    sites = _parse_sites(args.sites, g, args.seed)
    direct = routing_mod.voronoi_direct(g, sites)
    system = disks_mod.build_disk_system(g)
    tree = separators_mod.build_decomposition(system, leaf_threshold=args.leaf, seed=args.seed)
    via = routing_mod.voronoi_via_tree(g, tree, sites)
    if not (np.array_equal(via.dist, direct.dist) and np.array_equal(via.label, direct.label)):
        raise InvariantViolation("tree-based and direct Voronoi labelings disagree")
    handle, w = _writer(args)
    w.writerow(["vertex", "label", "dist"])
    for v in range(g.n):
        d = via.dist[v]
        w.writerow([v, int(via.label[v]), "inf" if np.isinf(d) else _fmt(d)])
    _close(handle)
    return 0


def cmd_neighborly(args) -> int:
    g = resolve_graph(args.graph, args.seed)
    rep = _neighborly(g, args.cutoff)
    handle, w = _writer(args)
    w.writerow(["n", "max_hops_augmented", "max_hops_plain", "augmented_truncated", "plain_truncated"])
    w.writerow([g.n, rep.max_hops_augmented, rep.max_hops_plain, int(rep.augmented_truncated), int(rep.plain_truncated)])
    _close(handle)
    return 0


def cmd_clustering(args) -> int:
    g = resolve_graph(args.graph, args.seed)
    rep = augment_mod.clustering_check(_checked_system(g))
    handle, w = _writer(args)
    w.writerow(["n", "max_components"])
    w.writerow([g.n, rep.max_components])
    _close(handle)
    return 0


def cmd_arrangement(args) -> int:
    g = resolve_graph(args.graph, args.seed)
    arr, audit = _arrangement(g, args.inductive)
    mode = "inductive" if args.inductive else "naive"
    handle, w = _writer(args)
    w.writerow(["V", "E", "F", "C", "ratio", "mode"])
    w.writerow([arr.vertex_count, arr.edge_count, arr.face_count(), arr.component_count, _fmt(audit.per_vertex_ratio), mode])
    _close(handle)
    return 0


# metric -> value for one graph, through the code path of its subcommand.
REPORT_METRICS = {
    "crossings": lambda g, args: len(_checked_crossings(g)[1]),
    "ply": lambda g, args: disks_mod.ply_report(_checked_system(g)).max_center_ply,
    "sqrt_ply": lambda g, args: disks_mod.ply_report(_checked_system(g)).kth_largest_center_ply,
    "disk_degree": lambda g, args: disks_mod.ply_report(_checked_system(g)).max_disk_degree,
    "clustering": lambda g, args: augment_mod.clustering_check(_checked_system(g)).max_components,
    "neighborly": lambda g, args: _neighborly(g, args.cutoff).max_hops_augmented,
    "arrangement": lambda g, args: _arrangement(g, False)[1].per_vertex_ratio,
}


def cmd_report(args) -> int:
    try:
        sizes = [int(tok) for tok in args.sizes.split(",") if tok]
    except ValueError:
        raise ConfigError(f"bad size list {args.sizes!r} (--sizes)") from None
    if not sizes:
        raise ConfigError("empty size list (--sizes)")
    if args.metric not in REPORT_METRICS:
        raise ConfigError(f"unknown metric {args.metric!r}; choose from {tuple(REPORT_METRICS)}")
    if args.gen not in GENERATORS:
        raise ConfigError(f"unknown generator {args.gen!r}; choose from {GENERATORS}")
    handle, w = _writer(args)
    w.writerow(["network", "n", "metric", "sqrt_n"])
    for size in sizes:
        if args.gen == "gotham":
            side = max(2, round(math.sqrt(size)))
            g = gen_gotham(side, args.expressways, args.seed)
            name = f"gotham-{side}x{side}"
        elif args.gen == "rgg":
            radius = args.radius if args.radius else 1.5 / math.sqrt(size)
            g = gen_random_geometric(size, radius, args.seed)
            name = f"rgg-{size}"
        else:
            ring = max(12, round(math.sqrt(size)))
            g = gen_hub_spoke(ring, args.spokes, args.seed)
            name = f"hubspoke-{ring}"
        value = REPORT_METRICS[args.metric](g, args)
        value_str = str(value) if isinstance(value, int) else _fmt(value)
        w.writerow([name, g.n, value_str, _fmt(math.sqrt(g.n))])
    _close(handle)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="roadgeom",
        description="Geometric analysis of road-network-like graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0, help="rng seed (generators and randomized algorithms)")
        p.add_argument("--out", default=None, help="output CSV path (default stdout)")

    p = sub.add_parser("crossings", help="detect and classify edge crossings")
    p.add_argument("graph")
    common(p)
    p.set_defaults(func=cmd_crossings)

    p = sub.add_parser("ply", help="disk-system ply statistics")
    p.add_argument("graph")
    common(p)
    p.set_defaults(func=cmd_ply)

    p = sub.add_parser("decompose", help="recursive circle-separator decomposition")
    p.add_argument("graph")
    p.add_argument("--delta", type=float, default=2.0 / 3.0)
    p.add_argument("--leaf", type=int, default=32)
    common(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("sssp", help="single-source shortest paths")
    p.add_argument("graph")
    p.add_argument("--source", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_sssp)

    p = sub.add_parser("voronoi", help="graph Voronoi labeling via the separator tree")
    p.add_argument("graph")
    p.add_argument("--sites", required=True, help="comma list of vertex ids or random:<k>")
    p.add_argument("--leaf", type=int, default=32)
    common(p)
    p.set_defaults(func=cmd_voronoi)

    p = sub.add_parser("neighborly", help="hop distances between intersecting disk centers")
    p.add_argument("graph")
    p.add_argument("--cutoff", type=int, default=250)
    common(p)
    p.set_defaults(func=cmd_neighborly)

    p = sub.add_parser("clustering", help="components among smaller intersecting neighbors")
    p.add_argument("graph")
    common(p)
    p.set_defaults(func=cmd_clustering)

    p = sub.add_parser("arrangement", help="circle arrangement statistics")
    p.add_argument("graph")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--naive", action="store_true")
    mode.add_argument("--inductive", action="store_true")
    common(p)
    p.set_defaults(func=cmd_arrangement)

    p = sub.add_parser("report", help="multi-size metric sweep over a generator family")
    p.add_argument("--gen", required=True)
    p.add_argument("--sizes", required=True, help="comma list of target vertex counts")
    p.add_argument("--metric", required=True)
    p.add_argument("--expressways", type=int, default=4)
    p.add_argument("--spokes", type=int, default=21)
    p.add_argument("--radius", type=float, default=None)
    p.add_argument("--cutoff", type=int, default=250)
    common(p)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"roadgeom: configuration error: {exc}", file=sys.stderr)
        return 1
    except (ParseError, ValidationError, DegeneracyError, OSError) as exc:
        print(f"roadgeom: data error: {exc}", file=sys.stderr)
        return 2
    except (InvariantViolation, SeparatorFailure) as exc:
        print(f"roadgeom: invariant violation: {exc}", file=sys.stderr)
        return 3
    except RoadGeomError as exc:
        print(f"roadgeom: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
