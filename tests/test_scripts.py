"""The experiment scripts run end to end at their smallest sizes."""

import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script, args, rows",
    [
        ("crossing_scaling.py", ["--sides", "8,12", "--expressways", "2"], 2),
        ("ply_study.py", ["--family", "hubspoke", "--sizes", "144"], 1),
        ("neighborly_study.py", ["--sides", "8"], 1),
    ],
)
def test_script_writes_its_table(tmp_path, script, args, rows):
    out = tmp_path / "out.csv"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args, "--out", str(out)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    table = list(csv.reader(out.open(newline="")))
    assert len(table) == rows + 1
    assert all(len(row) == len(table[0]) for row in table)
