"""Smoke test of the benchmark: every workload at a tiny size, traced and not.

    python3 perfbench/smoke.py

Checks that each run exits 0, that its last line carries exactly the
end-to-end (or, traced, the per-layer) metrics named in BENCHMARK.json,
each with its unit, and that no rollout failed. Exits 1 on the first
failure. Takes about 15 s on two cores.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}"
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(workload: str, trace: int) -> None:
    result = run(workload, trace)
    expected = SPEC["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in expected}, sorted(set(metrics) ^ {m["name"] for m in expected})
    for m in expected:
        got = metrics[m["name"]]
        assert got["unit"] == m["unit"], (m["name"], got)
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), (m["name"], got)
    assert result["failed"] == 0 and result["correct"], result
    assert result["attempted"] >= 1, result
    if not trace:
        assert metrics["success_frac"]["value"] == 1.0, metrics["success_frac"]
        for name in ("samples_per_s", "rollout_s.p50", "setup_s", "peak_rss_mb"):
            assert metrics[name]["value"] > 0, (name, metrics[name])


def main() -> int:
    for workload in [w["name"] for w in SPEC["workloads"]]:
        for trace in (0, 1):
            try:
                check(workload, trace)
            except AssertionError as exc:
                print(f"FAIL {workload} trace={trace}: {exc}")
                return 1
            print(f"ok   {workload} trace={trace}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
