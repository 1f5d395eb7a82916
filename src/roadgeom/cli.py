"""Command-line interface: per-metric runs and multi-size report sweeps.

Graphs are given either as generator specs (``gotham:side=32,express=4``,
``rgg:n=500,radius=0.08``, ``hubspoke:ring=28,spokes=21``), as DIMACS
``.gr``/``.co`` pairs, or as a directory / ``vertices.csv`` path holding the
native CSV interchange pair.  All outputs are deterministic CSV for a fixed
seed.  Exit codes: 0 ok, 1 usage or configuration, 2 data error,
3 violated invariant.

Each ``cmd_*`` computes its result and returns ``(header, rows, notes)``;
``_run`` resolves the graph and writes every CSV.
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
from .graphs import gen_gotham, gen_hub_spoke, gen_random_geometric, load_csv, load_dimacs

# kind -> (generator, ((key, type, default or None if required), ...)); the
# keys are the generator's leading arguments, in order, before the seed.
GENERATORS = {
    "gotham": (gen_gotham, (("side", int, None), ("express", int, 4))),
    "rgg": (gen_random_geometric, (("n", int, None), ("radius", float, None))),
    "hubspoke": (gen_hub_spoke, (("ring", int, None), ("spokes", int, 21))),
}


def _default(kind, key):
    """The default of generator parameter ``key`` in ``GENERATORS``."""
    return next(default for k, _, default in GENERATORS[kind][1] if k == key)


def resolve_graph(spec: str, seed):
    """Build or load the graph named by a CLI graph spec."""
    kind, _, rest = spec.partition(":")
    if kind in GENERATORS:
        generator, params = GENERATORS[kind]
        given = {}
        for item in filter(None, rest.split(",")):
            key, _, value = item.partition("=")
            if not value or key not in {p[0] for p in params}:
                raise ConfigError(f"bad generator parameter {item!r} in {spec!r}")
            if key in given:
                raise ConfigError(f"parameter {key!r} given twice in {spec!r}")
            given[key] = value
        try:
            values = []
            for key, cast, default in params:
                if key not in given and default is None:
                    raise ConfigError(f"{spec!r} is missing parameter {key!r}")
                values.append(cast(given[key]) if key in given else default)
            return generator(*values, seed)
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


def _fmt(x: float) -> str:
    return repr(float(x))  # "inf" for unreachable distances


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
    over = np.flatnonzero(np.bincount(aug.shortcuts[:, 0]) > 4)
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


def cmd_crossings(args, g):
    table, proper = _checked_crossings(g)
    x, y = map(_fmt, table.x.tolist()), map(_fmt, table.y.tolist())
    kind = (crossings_mod.KINDS[code] for code in table.kind.tolist())
    rows = zip(table.e1.tolist(), table.e2.tolist(), x, y, table.level_lo.tolist(), table.level_hi.tolist(), kind)
    hist = crossings_mod.crossing_histogram(proper)
    notes = [f"proper_total={len(proper)} degenerate_total={len(table) - len(proper)}"]
    notes += [f"level_pair_{l1}_{l2}={count}" for (l1, l2), count in sorted(hist.items())]
    return ["e1", "e2", "x", "y", "level1", "level2", "kind"], rows, notes


def cmd_ply(args, g):
    rep = disks_mod.ply_report(_checked_system(g))
    row = [g.n, rep.max_center_ply, rep.kth_largest_center_ply, rep.max_disk_degree]
    return ["n", "max_center_ply", "sqrt_n_th_ply", "max_disk_degree"], [row], []


def cmd_decompose(args, g):
    system = disks_mod.build_disk_system(g)
    tree = separators_mod.build_decomposition(
        system, delta=args.delta, leaf_threshold=args.leaf, seed=args.seed
    )
    rows = []
    for nd in tree.nodes:
        sep = nd.separator
        if sep is None:
            cut, balance, retries = 0, 0.0, 0
        else:
            cut, balance, retries = len(sep.cut), sep.balance, sep.retries
        rows.append([nd.id, nd.depth, nd.vertex_count, cut, _fmt(balance), retries])
    return ["node", "depth", "n", "cut", "balance", "retries"], rows, []


def cmd_sssp(args, g):
    result = routing_mod.sssp(g, args.source)
    rows = zip(range(g.n), map(_fmt, result.dist.tolist()), result.parent.tolist())
    return ["vertex", "dist", "parent"], rows, []


def cmd_voronoi(args, g):
    try:
        if args.sites.startswith("random:"):
            k = int(args.sites.split(":", 1)[1])
            if not 1 <= k <= g.n:
                raise ConfigError(f"random site count {k} out of range 1..{g.n}")
            rng = np.random.default_rng(args.seed)
            sites = sorted(int(s) for s in rng.choice(g.n, size=k, replace=False))
        else:
            sites = [int(tok) for tok in args.sites.split(",") if tok]
    except ValueError:
        raise ConfigError(f"bad site list {args.sites!r}") from None
    direct = routing_mod.voronoi_direct(g, sites)
    system = disks_mod.build_disk_system(g)
    tree = separators_mod.build_decomposition(system, leaf_threshold=args.leaf, seed=args.seed)
    via = routing_mod.voronoi_via_tree(g, tree, sites)
    if not (np.array_equal(via.dist, direct.dist) and np.array_equal(via.label, direct.label)):
        raise InvariantViolation("tree-based and direct Voronoi labelings disagree")
    rows = zip(range(g.n), via.label.tolist(), map(_fmt, via.dist.tolist()))
    return ["vertex", "label", "dist"], rows, []


def cmd_neighborly(args, g):
    rep = _neighborly(g, args.cutoff)
    row = [g.n, rep.max_hops_augmented, rep.max_hops_plain, int(rep.augmented_truncated), int(rep.plain_truncated)]
    return ["n", "max_hops_augmented", "max_hops_plain", "augmented_truncated", "plain_truncated"], [row], []


def cmd_clustering(args, g):
    rep = augment_mod.clustering_check(_checked_system(g))
    return ["n", "max_components"], [[g.n, rep.max_components]], []


def cmd_arrangement(args, g):
    arr, audit = _arrangement(g, args.inductive)
    mode = "inductive" if args.inductive else "naive"
    row = [arr.vertex_count, arr.edge_count, arr.face_count(), arr.component_count, _fmt(audit.per_vertex_ratio), mode]
    return ["V", "E", "F", "C", "ratio", "mode"], [row], []


# metric -> value for one graph, through the code path of its subcommand.
REPORT_METRICS = {
    "crossings": lambda g, args: len(_checked_crossings(g)[1]),
    "ply": lambda g, args: disks_mod.ply_report(_checked_system(g)).max_center_ply,
    "sqrt_ply": lambda g, args: disks_mod.ply_report(_checked_system(g)).kth_largest_center_ply,
    "disk_degree": lambda g, args: disks_mod.ply_report(_checked_system(g)).max_disk_degree,
    "clustering": lambda g, args: augment_mod.clustering_check(_checked_system(g)).max_components,
    "neighborly": lambda g, args: _neighborly(g, args.cutoff).max_hops_augmented,
    "neighborly_plain": lambda g, args: _neighborly(g, args.cutoff).max_hops_plain,
    "plain_truncated": lambda g, args: int(_neighborly(g, args.cutoff).plain_truncated),
    "system_ply": lambda g, args: arrangement_mod.system_ply(_checked_system(g)),
    "arrangement": lambda g, args: _arrangement(g, False)[1].per_vertex_ratio,
}


# generator -> its own `report` option (None when not given), which the
# other generators reject.
REPORT_OPTIONS = {"gotham": "expressways", "rgg": "radius", "hubspoke": "spokes"}


def cmd_report(args):
    try:
        sizes = [int(tok) for tok in args.sizes.split(",") if tok]
    except ValueError:
        raise ConfigError(f"bad size list {args.sizes!r} (--sizes)") from None
    if not sizes:
        raise ConfigError("empty size list (--sizes)")
    if min(sizes) < 1:
        raise ConfigError(f"sizes must be positive in {args.sizes!r} (--sizes)")
    if args.metric not in REPORT_METRICS:
        raise ConfigError(f"unknown metric {args.metric!r}; choose from {tuple(REPORT_METRICS)}")
    if args.gen not in GENERATORS:
        raise ConfigError(f"unknown generator {args.gen!r}; choose from {tuple(GENERATORS)}")
    for gen, option in REPORT_OPTIONS.items():
        if gen != args.gen and getattr(args, option) is not None:
            raise ConfigError(f"--{option} applies to --gen {gen} only")
    rows = []
    for size in sizes:
        if args.gen == "gotham":
            express = _default("gotham", "express") if args.expressways is None else args.expressways
            # Expressway chords need a side of 4, as spokes need a ring of 12.
            side = max(4 if express > 0 else 2, round(math.sqrt(size)))
            g = gen_gotham(side, express, args.seed)
            name = f"gotham-{side}x{side}"
        elif args.gen == "rgg":
            radius = 1.5 / math.sqrt(size) if args.radius is None else args.radius
            g = gen_random_geometric(size, radius, args.seed)
            name = f"rgg-{size}"
        else:
            ring = max(12, round(math.sqrt(size)))
            spokes = _default("hubspoke", "spokes") if args.spokes is None else args.spokes
            g = gen_hub_spoke(ring, spokes, args.seed)
            name = f"hubspoke-{ring}"
        value = REPORT_METRICS[args.metric](g, args)
        value_str = str(value) if isinstance(value, int) else _fmt(value)
        rows.append([name, g.n, value_str, _fmt(math.sqrt(g.n))])
    return ["network", "n", "metric", "sqrt_n"], rows, []


def _run(args) -> int:
    """Resolve the graph, run the command, write its CSV and ``# `` notes.

    ``--out`` is opened only after the command returns: a failed run writes no file.
    """
    if "graph" in vars(args):
        header, rows, notes = args.func(args, resolve_graph(args.graph, args.seed))
    else:
        header, rows, notes = args.func(args)
    handle = open(args.out, "w", newline="", encoding="utf-8") if args.out else sys.stdout
    try:
        w = csv.writer(handle, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)
        handle.writelines(f"# {note}\n" for note in notes)
    finally:
        if handle is not sys.stdout:
            handle.close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="roadgeom",
        description="Geometric analysis of road-network-like graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, graph=True):
        p = sub.add_parser(name, help=help)
        if graph:
            p.add_argument("graph")
        p.set_defaults(func=func)
        return p

    command("crossings", cmd_crossings, "detect and classify edge crossings")
    command("ply", cmd_ply, "disk-system ply statistics")

    p = command("decompose", cmd_decompose, "recursive circle-separator decomposition")
    p.add_argument("--delta", type=float, default=2.0 / 3.0)
    p.add_argument("--leaf", type=int, default=32)

    p = command("sssp", cmd_sssp, "single-source shortest paths")
    p.add_argument("--source", type=int, required=True)

    p = command("voronoi", cmd_voronoi, "graph Voronoi labeling via the separator tree")
    p.add_argument("--sites", required=True, help="comma list of vertex ids or random:<k>")
    p.add_argument("--leaf", type=int, default=32)

    p = command("neighborly", cmd_neighborly, "hop distances between intersecting disk centers")
    p.add_argument("--cutoff", type=int, default=250)

    command("clustering", cmd_clustering, "components among smaller intersecting neighbors")

    p = command("arrangement", cmd_arrangement, "circle arrangement statistics")
    p.add_argument("--inductive", action="store_true", help="build inductively (default: naive)")

    p = command("report", cmd_report, "multi-size metric sweep over a generator family", graph=False)
    p.add_argument("--gen", required=True)
    p.add_argument("--sizes", required=True, help="comma list of target vertex counts")
    p.add_argument("--metric", required=True, help=f"one of {', '.join(REPORT_METRICS)}")
    p.add_argument("--expressways", type=int, help=f"gotham only (default {_default('gotham', 'express')})")
    p.add_argument("--spokes", type=int, help=f"hubspoke only (default {_default('hubspoke', 'spokes')})")
    p.add_argument("--radius", type=float, help="rgg only (default 1.5 / sqrt(size))")
    p.add_argument("--cutoff", type=int, default=250)

    # Shared options come last, so each usage line lists them after the command's own.
    for p in sub.choices.values():
        p.add_argument("--seed", type=int, default=0, help="rng seed (generators and randomized algorithms)")
        p.add_argument("--out", default=None, help="output CSV path (default stdout)")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        return _run(args)
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
