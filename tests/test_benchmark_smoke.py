"""The benchmark's own smoke test (perfbench/smoke.py) passes: every
workload runs at a tiny size, traced and untraced, with every rollout's
digest matching and the in-flight check holding. It reads channel and
harness attributes from outside the package, so a refactor can break it
without breaking any unit test. Takes about 15 s on two cores."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_smoke_passes():
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "smoke.py")], cwd=ROOT,
                          capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stdout + proc.stderr
