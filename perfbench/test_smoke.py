"""Smoke test of the benchmark itself: every workload at a tiny size must emit
every metric of BENCHMARK.json with its unit.

    python3 -m pytest perfbench/test_smoke.py
"""

import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def test_smoke_emits_every_metric():
    proc = subprocess.run(
        [sys.executable, str(RUN), "--smoke"],
        cwd=RUN.parent.parent, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
