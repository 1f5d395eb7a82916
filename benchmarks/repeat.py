"""Run the benchmark over workloads and seeds and summarise each metric.

    python3 benchmarks/repeat.py [--workloads gotham-route,rgg-planarize] \
        [--seeds 1-10] [--seconds 30] [--trace 1] [--out summary.json]

With no arguments it runs every workload once, on the baseline seed, for
BENCHMARK.json's run length.  Each (workload, seed) pair is one ``run.py``
process, run one after another, whose report is printed as it ends.
For every metric the summary gives the median, the quartiles (as
``statistics.quantiles(values, n=4)`` computes them), the spread (quartile
distance over the median) and the sample count; failed or incorrect runs
are listed and left out of the figures.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def seed_list(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def summarise(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else 0.0,
        "samples": len(values),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    parser.add_argument("--seeds", default="1", help="e.g. 1-10 or 1,3,5")
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the summary JSON here")
    args = parser.parse_args(argv)
    summary = {}
    for workload in args.workloads.split(","):
        values, units, bad = {}, {}, []
        for seed in seed_list(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                capture_output=True, text=True,
            )
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            if result is None or not result["correct"]:
                bad.append(seed)
                print(f"{workload} seed {seed}: FAILED\n{proc.stdout}{proc.stderr}", flush=True)
                continue
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
            print("\n".join(lines[:-1]), flush=True)
        summary[workload] = {
            "failed_seeds": bad,
            "metrics": {name: {**summarise(v), "unit": units[name]} for name, v in values.items()},
        }
        for name, s in summary[workload]["metrics"].items():
            print(f"  {workload} {name}: median {s['median']:.5g} {s['unit']} "
                  f"[{s['q1']:.5g}, {s['q3']:.5g}] spread {s['spread']:.3f} (n={s['samples']})")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
