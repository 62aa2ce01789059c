"""Smoke runs of the experiment scripts on tiny inputs: each exits 0 and
prints its table."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, args, line", [
    ("bandwidth_sweep.py", ["--n", "10", "--points", "2"],
     "scenario 1  n=(10, 10, 10)  default lambda 0.1826"),
    ("run_full_study.py",
     ["--scenarios", "1", "--sizes", "10", "--reps", "2", "--methods", "naive,parametric"],
     "scenario 1  n=(10, 10, 10)  R=2  seed=1"),
    ("population_truth.py", ["--mc-n", "10000"], "scenario 1: oracle [1.  1.1 1.2]"),
    ("run_full_study.py", ["--scenarios", "4", "--sizes", "10", "--reps", "2"],
     "scenario 4  n=(10, 10, 10)  R=2  seed=1"),
])
def test_script_runs(tmp_path, script, args, line):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          capture_output=True, text=True, env=env, cwd=tmp_path,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert any(ln.startswith(line) for ln in proc.stdout.splitlines()), proc.stdout
