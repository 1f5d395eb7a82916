"""roadgeom benchmark: one seeded workload, measured in its own process.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload gotham-route --seed 1 --seconds 30 --trace 0

Workloads: gotham-route, rgg-planarize, hubspoke-locality (see
``workloads.py`` for what each runs and why).  The seed fixes the generated
graph, the decomposition seed and the query sites.  This script writes the
graph files under ``.bench_data/``, starts ``worker.py`` in a fresh
single-threaded process that loads them and measures, then prints every
metric by name with its unit and, as the last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` gives the end-to-end metrics (setup_s and pipeline_s at
reference host speed, see ``worker.Timed``, and peak_rss_mb); ``--trace 1`` gives the per-layer metrics from a traced run
and writes its spans to ``.bench_out/``.  ``--scale toy`` shrinks every
workload for the smoke test.  ``repeat.py`` runs many seeds and reports
medians and quartiles.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER_TIMEOUT_S = 170
SINGLE_THREAD = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
# Spelled out rather than imported: workloads.py needs the library, which
# may be missing, and that must fail after parsing, with a message.
WORKLOAD_NAMES = ("gotham-route", "rgg-planarize", "hubspoke-locality")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="timed work per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "toy"), default="full")
    return parser.parse_args(argv)


def write_inputs(name, seed, scale, directory):
    """Generate the workload's graph and write its files plus a manifest."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads as wl

    w = wl.WORKLOADS[name]
    g = wl.generate(w, seed, scale)
    directory.mkdir(parents=True, exist_ok=True)
    wl.save_input(w, g, directory)
    manifest = {
        "n": g.n,
        "m": g.m,
        "signature": wl.load_signature(g, w.fmt),
        "input_bytes": sum(p.stat().st_size for p in wl.input_paths(w, directory)),
    }
    (directory / "manifest.json").write_text(json.dumps(manifest))


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "roadgeom" / "__init__.py").is_file():
        print(f"benchmark: no roadgeom sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    tag = f"{args.workload}-{args.scale}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    data = ROOT / ".bench_data" / tag
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    try:
        write_inputs(args.workload, args.seed, args.scale, data)
        result_path = data / "result.json"
        cmd = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", args.workload, "--data", str(data), "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(result_path),
        ]
        if args.trace:
            cmd += ["--spans", str(out_dir / f"spans-{args.workload}-{args.scale}-seed{args.seed}.json")]
        try:
            proc = subprocess.run(cmd, env={**os.environ, **SINGLE_THREAD}, timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:  # run() has killed and reaped the worker
            print(f"benchmark: worker exceeded {WORKER_TIMEOUT_S} s", file=sys.stderr)
            return 1
        if proc.returncode != 0 or not result_path.is_file():
            print(f"benchmark: worker exited with code {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(result_path.read_text())
    finally:
        shutil.rmtree(data, ignore_errors=True)
    report(args, result)
    return 0


def report(args, result):
    notes = result.pop("notes")
    print(f"workload {args.workload} seed {args.seed} scale {args.scale} trace {args.trace}: "
          f"{notes['repeats']} repeats")
    for name, metric in result["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    if notes["pipeline_wall_s_samples"]:
        print(f"  raw wall time: pipeline {median(notes['pipeline_wall_s_samples']):.6g} s, "
              f"setup {median(notes['setup_wall_s_samples']):.6g} s (medians; the metrics above are "
              f"at reference host speed)")
    if "query_p50_ms" in notes:
        print(f"  query_p50_ms = {notes['query_p50_ms']:.6g} ms, query_p75_ms = {notes['query_p75_ms']:.6g} ms "
              f"({notes['query_ms_samples']} samples)")
    print(f"  ops_failed = {result['failed']} of ops_attempted = {result['attempted']}")
    for failure in notes["failures"]:
        print(f"  FAILED {failure}")
    print(json.dumps(result))


if __name__ == "__main__":
    sys.exit(main())
