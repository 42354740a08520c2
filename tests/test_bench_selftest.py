"""The benchmark's self-test: tiny workloads, output checks, and a corrupted
report that must fail them. It also fails when a function the tracer wraps
is renamed."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--selftest"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
