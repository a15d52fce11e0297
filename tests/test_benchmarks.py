"""The micro-benchmarks in benchmarks/ sit outside testpaths, and their files
are named bench_*.py, so `pytest benchmarks` collects nothing.  This runs
each of them once, untimed, so that they keep working."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_micro_benchmarks_run():
    files = sorted(str(p) for p in (ROOT / "benchmarks").glob("bench_*.py"))
    assert files
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", *files, "--benchmark-disable", "-q"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
