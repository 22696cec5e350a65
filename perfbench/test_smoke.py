"""Smoke test of the benchmark: every workload at tiny scale, traced and
untraced, completes with correct outputs and reports the metrics named in
BENCHMARK.json. It checks that the workloads run, not how fast.

    python3 -m pytest perfbench/test_smoke.py
"""

import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def test_smoke():
    proc = subprocess.run([sys.executable, str(RUN), "--smoke"], capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
