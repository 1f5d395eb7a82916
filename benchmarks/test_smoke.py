"""Smoke test of the benchmark at toy sizes.

    python3 -m pytest -q benchmarks/test_smoke.py

Checks that every metric BENCHMARK.json names is emitted with its unit on
every workload, that a corrupted result counts as a failed op, and that the
command fails cleanly when the library sources are absent.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from roadgeom import routing  # noqa: E402

import run  # noqa: E402
import workloads as wl  # noqa: E402
from worker import Run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SCRATCH = ROOT / ".bench_data" / "smoke"


def run_command(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--scale", "toy"],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = run_command(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    printed = "\n".join(lines[:-1])
    for name, unit in declared.items():
        assert f"{name} = " in printed and unit in printed
    assert "ops_failed = 0 of ops_attempted" in printed
    if workload == "gotham-route" and not trace:
        assert "query_p50_ms" in printed and "query_p75_ms" in printed
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        assert abs(result["metrics"]["bench.span_coverage_pct"]["value"] - 100) < 5


def _flip_one_label(real):
    def corrupted(g, tree, sites):
        out = real(g, tree, sites)
        label = out.label.copy()
        v = int(np.flatnonzero(~np.isin(np.arange(g.n), sites))[0])
        others = [int(s) for s in sites if int(s) != label[v]]
        label[v] = others[0] if others else -1
        return dataclasses.replace(out, label=label)

    return corrupted


def test_flipped_voronoi_label_is_a_failed_op(monkeypatch):
    shutil.rmtree(SCRATCH, ignore_errors=True)
    monkeypatch.setattr(routing, "voronoi_via_tree", _flip_one_label(routing.voronoi_via_tree))
    run.write_inputs("gotham-route", 3, "toy", SCRATCH)
    try:
        result = Run(wl.WORKLOADS["gotham-route"], SCRATCH, 3, trace=False).measure(seconds=0.2)
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    assert not result["correct"]
    assert result["failed"] == wl.QUERIES  # every query of the checked repeat
    assert all("labels differ" in f for f in result["notes"]["failures"])


def test_fails_without_the_library():
    shutil.rmtree(SCRATCH, ignore_errors=True)
    SCRATCH.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", SCRATCH)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, SCRATCH / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_command(SCRATCH, "gotham-route", 0)
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
