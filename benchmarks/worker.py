"""Measures one workload inside one single-threaded process.

``run.py`` writes the workload's graph files and starts this script; the
library only ever sees those files.  The run has three parts:

1. set-up: load the files ``SETUP_LOADS`` times (``setup_s`` samples);
2. repeats, for about ``--seconds`` of timed work: a fresh load (one more
   ``setup_s`` sample), the pipeline stages (``pipeline_s``), then the
   closed-loop queries if the workload has any;
3. checks, outside every timed region: the first repeat's outputs get every
   check of their stage, later repeats must reproduce its fingerprints.

``setup_s`` and ``pipeline_s`` are medians over those samples, each sample
taken at reference host speed (see ``Timed``).  An op is one load, one
stage call or one query; it fails if it raises or if its check fails.  With
``--trace 1`` repeats alternate untraced and traced, and the traced ones
record a span around every call into roadgeom.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
import traceback
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402
from roadgeom import routing  # noqa: E402

import workloads as wl  # noqa: E402
from spans import NoSpans, Spans  # noqa: E402

SETUP_LOADS = 5

# On a shared 2-vCPU Xeon VM the CPU speed changed by up to 1.6x within
# seconds as other tenants loaded the host, which spread per-run medians of
# raw wall time over 12-32% of their median (quartile distance, 10 seeds).
# So a fixed calibration kernel is timed right before and after every timed
# call, and setup_s and pipeline_s are reported at reference speed: wall
# time x REFERENCE_KERNEL_S / (mean of the two kernel times).  The raw wall
# times are reported alongside.
REFERENCE_KERNEL_S = 0.0024  # kernel time on the reference host, uncontended
_KERNEL_DATA = np.random.default_rng(0).random(4096)


def _kernel():
    """Fixed mix of interpreter work and small numpy calls, like the stages."""
    table = {}
    total = 0.0
    for i in range(6000):
        key = (i % 509, i & 31)
        table[key] = table.get(key, 0.0) + i * 0.5
        total += table[key]
    for _ in range(20):
        total += float(np.sort(_KERNEL_DATA)[17])
    return total


def kernel_time():
    """Median of three kernel timings: the host's speed right now."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return median(times)


class Timed:
    """Wall time of timed calls and the same time at reference speed."""

    def __init__(self):
        self.wall = 0.0
        self.scaled = 0.0
        self._before = kernel_time()

    def add(self, seconds):
        after = kernel_time()
        self.wall += seconds
        self.scaled += seconds * REFERENCE_KERNEL_S / ((self._before + after) / 2)
        self._before = after


END_TO_END = {"setup_s": "s", "pipeline_s": "s", "peak_rss_mb": "MB"}

# Span names: one per public function the workloads call, plus the checks'
# direct Voronoi run.  Each becomes the per-layer metric "<name>_s".
LAYER_SPANS = (
    "graphs.load_dimacs",
    "graphs.load_csv",
    "crossings.find_crossings",
    "crossings.planarize",
    "disks.build_disk_system",
    "disks.ply_report",
    "disks.charge_audit",
    "disks.exceptional_decomposition",
    "separators.build_decomposition",
    "routing.voronoi_via_tree",
    "routing.voronoi_direct",
    "augment.grid_augment",
    "augment.clustering_check",
    "augment.neighborly_check",
    "arrangement.build_naive",
    "arrangement.build_inductive",
    "arrangement.audit",
)
LAYER_UNITS = {
    "graphs.input_bytes": "bytes",
    "separators.useful_per_attempt": "ratio",
    "routing.query_p50_ms": "ms",
    "routing.query_p75_ms": "ms",
    "bench.check_s": "s",
    "bench.setup_wall_s": "s",
    "bench.pipeline_wall_s": "s",
    "bench.host_slowdown": "ratio",
    "bench.trace_overhead_pct": "%",
    "bench.span_coverage_pct": "%",
}


def per_layer_units():
    """Every per-layer metric the traced run emits, with its unit."""
    units = {f"{name}_s": "s" for name in LAYER_SPANS}
    units.update({name: LAYER_UNITS.get(name, "count") for name in wl.COUNT_NAMES})
    units.update(LAYER_UNITS)
    return units


class Ops:
    def __init__(self):
        self.attempted = 0
        self.failures = []

    def record(self, name, error):
        self.attempted += 1
        if error is not None:
            self.failures.append(f"{name}: {error}")

    def check(self, name, fn, *args):
        """Count one op whose verdict is fn(*args) not raising."""
        self.record(name, _error_of(fn, *args))


def _error_of(fn, *args):
    try:
        fn(*args)
    except wl.CheckFailed as exc:
        return str(exc)
    except Exception as exc:  # op boundary: report it and keep going
        traceback.print_exc()
        return f"{type(exc).__name__}: {exc}"
    return None


def _describe(exc):
    traceback.print_exception(exc)
    return f"{type(exc).__name__}: {exc}"


class Run:
    def __init__(self, workload, data_dir, seed, trace):
        self.w = workload
        self.data_dir = Path(data_dir)
        self.seed = seed
        self.trace = trace
        self.spans = Spans() if trace else NoSpans()
        self.ops = Ops()
        self.manifest = json.loads((self.data_dir / "manifest.json").read_text())
        self.load_times = []
        self.check_time = 0.0

    def load(self, run_id, tracer):
        name = wl.load_span_name(self.w)
        timed = Timed()
        t0 = time.perf_counter()
        try:
            with tracer.span(name, run_id):
                g = wl.load_input(self.w, self.data_dir)
        except Exception as exc:  # a load that raises is a failed op
            self.ops.record(name, _describe(exc))
            return None
        timed.add(time.perf_counter() - t0)
        self.load_times.append(timed)
        self.ops.check(name, self._check_load, g)
        return g

    def _check_load(self, g):
        wl.require(
            wl.load_signature(g, self.w.fmt) == self.manifest["signature"],
            "loaded graph differs from the generated one",
        )

    def repeat(self, g, run_id, tracer, query_sets):
        """One timed pipeline pass plus its queries; checks come later."""
        r = {"g": g, "seed": self.seed}
        errors = {}
        pipeline = Timed()
        for stage in self.w.stages:
            t0 = time.perf_counter()
            try:
                with tracer.span(stage.name, run_id):
                    r[stage.key] = stage.call(r)
            except Exception as exc:  # later stages need this output
                errors[stage.key] = _describe(exc)
            pipeline.add(time.perf_counter() - t0)
            if errors:
                break
        latencies, answers = [], []
        for q, sites in enumerate(query_sets if "tree" in r else ()):
            t = time.perf_counter()
            try:
                with tracer.span("bench.query", f"{run_id}/query-{q}"):
                    with tracer.span("routing.voronoi_via_tree"):
                        answers.append(routing.voronoi_via_tree(g, r["tree"], sites))
            except Exception as exc:  # a failed query is a failed op
                answers.append(exc)
            latencies.append(time.perf_counter() - t)
        return r, errors, pipeline, latencies, answers

    def judge(self, r, errors, answers, query_sets, reference):
        """Count the repeat's ops; ``reference`` holds the first repeat's
        fingerprints, or is empty for the first repeat (full checks)."""
        t0 = time.perf_counter()
        first = not reference
        prints = {}
        with self.spans.span("bench.check", "check"):
            for stage in self.w.stages:
                if stage.key in errors:
                    self.ops.record(stage.name, errors[stage.key])
                    continue
                if stage.key not in r:
                    self.ops.record(stage.name, "not run: an earlier stage failed")
                    continue
                prints[stage.key] = wl.fingerprint(r[stage.key])
                if first:
                    for check in stage.checks:
                        error = _error_of(check, r)
                        if error is not None:
                            break
                    self.ops.record(stage.name, error)
                else:
                    same = prints[stage.key] == reference.get(stage.key)
                    self.ops.record(stage.name, None if same else "differs from the first repeat")
            if self.w.queries and "tree" not in r:
                for q in range(len(query_sets)):
                    self.ops.record(f"query {q}", "not run: no separator tree")
            for q, answer in enumerate(answers):
                name = f"query {q}"
                if isinstance(answer, Exception):
                    self.ops.record(name, _describe(answer))
                    continue
                prints[name] = wl.fingerprint(answer)
                if first:
                    self.ops.check(name, self._check_query, r["g"], answer, query_sets[q])
                else:
                    same = prints[name] == reference.get(name)
                    self.ops.record(name, None if same else "differs from the first repeat")
        self.check_time += time.perf_counter() - t0
        return prints

    def _check_query(self, g, via, sites):
        with self.spans.span("routing.voronoi_direct"):
            direct = routing.voronoi_direct(g, sites)
        wl.check_voronoi(g, via, direct)

    def measure(self, seconds):
        for i in range(SETUP_LOADS):
            self.load(f"load-{i}", self.spans)
        query_sets = wl.query_sites(self.manifest["n"], self.seed) if self.w.queries else []
        timings = {False: [], True: []}  # traced? -> [Timed pipeline]
        latencies = {False: [], True: []}
        reference, counts, peak_rss_mb = {}, None, None
        coverage = []  # per traced repeat: stage spans over the timed stage calls
        work = []
        k = 0
        while k < (2 if self.trace else 1) or sum(work) + median(work) <= seconds:
            traced = self.trace and k % 2 == 1
            tracer = self.spans if traced else NoSpans()
            gc.collect()
            g = self.load(f"repeat-{k}", tracer)
            if g is None:
                break
            r, errors, pipeline, lat, answers = self.repeat(g, f"repeat-{k}", tracer, query_sets)
            work.append(pipeline.wall + sum(lat))
            timings[traced].append(pipeline)
            if traced and pipeline.wall:
                stages = {stage.name for stage in self.w.stages}
                coverage.append(self.spans.total(f"repeat-{k}", stages) / pipeline.wall)
            latencies[traced].extend(lat)
            if k == 0:
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            prints = self.judge(r, errors, answers, query_sets, reference)
            if k == 0:
                reference = prints
                if self.trace:
                    counts = wl.layer_counts(r, self.manifest["input_bytes"], list(zip(query_sets, answers)))
            del r, answers, g
            k += 1
        return self._result(timings, latencies, counts, peak_rss_mb, k, coverage)

    def _result(self, timings, latencies, counts, peak_rss_mb, repeats, coverage):
        untraced = timings[False]
        notes = {
            "repeats": repeats,
            "pipeline_s_samples": [t.scaled for t in untraced],
            "pipeline_wall_s_samples": [t.wall for t in untraced],
            "setup_s_samples": [t.scaled for t in self.load_times],
            "setup_wall_s_samples": [t.wall for t in self.load_times],
            "failures": self.ops.failures,
        }
        if self.w.queries:
            lat = latencies[False] or latencies[True]
            notes["query_ms_samples"] = len(lat)
            if lat:
                notes["query_p50_ms"] = 1000 * wl.percentile(lat, 50)
                notes["query_p75_ms"] = 1000 * wl.percentile(lat, 75)
        if not self.trace:
            # A run whose loads or stages all failed is reported incorrect
            # and its missing figures as 0.
            values = {
                "setup_s": median(notes["setup_s_samples"]) if self.load_times else 0.0,
                "pipeline_s": median(notes["pipeline_s_samples"]) if untraced else 0.0,
                "peak_rss_mb": peak_rss_mb or 0.0,
            }
            units = END_TO_END
        else:
            values = self._layer_values(timings, counts or {}, coverage)
            units = per_layer_units()
        metrics = {name: {"value": values.get(name, 0.0), "unit": unit} for name, unit in units.items()}
        ok = not self.ops.failures and self.ops.attempted > 0
        return {
            "correct": ok,
            "attempted": self.ops.attempted,
            "failed": len(self.ops.failures),
            "metrics": metrics,
            "notes": notes,
        }

    def _layer_values(self, timings, counts, coverage):
        spans = self.spans
        per_name = spans.per_run_medians(lambda run: run.split("/")[0])
        values = {f"{name}_s": per_name.get(name, 0.0) for name in LAYER_SPANS}
        values.update(counts)
        via = spans.durations("routing.voronoi_via_tree")
        if via:
            values["routing.query_p50_ms"] = 1000 * wl.percentile(via, 50)
            values["routing.query_p75_ms"] = 1000 * wl.percentile(via, 75)
        values["bench.check_s"] = self.check_time
        every = timings[False] + timings[True]
        if every:
            values["bench.pipeline_wall_s"] = median(t.wall for t in every)
            values["bench.host_slowdown"] = median(t.wall / t.scaled for t in every if t.scaled)
        if self.load_times:
            values["bench.setup_wall_s"] = median(t.wall for t in self.load_times)
        if timings[False] and timings[True]:
            traced = median(t.scaled for t in timings[True])
            values["bench.trace_overhead_pct"] = 100 * (traced / median(t.scaled for t in timings[False]) - 1)
        if coverage:
            values["bench.span_coverage_pct"] = 100 * median(coverage)
        return values


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--data", required=True, help="directory holding the graph files and manifest.json")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", required=True, help="where to write the result JSON")
    parser.add_argument("--spans", help="where to write the spans of a traced run")
    args = parser.parse_args(argv)
    run = Run(wl.WORKLOADS[args.workload], args.data, args.seed, bool(args.trace))
    result = run.measure(args.seconds)
    if args.trace and args.spans:
        run.spans.write(args.spans)
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
