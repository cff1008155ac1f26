"""Every study script in scripts/ runs to exit 0 at a tiny size, so an API
change that breaks a script fails the suite."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TINY = {
    "delay_robustness.py": ["--rounds", "200", "--rollouts", "1", "--taus", "0", "4"],
    "sign_split_separation.py": ["--rounds", "200", "--clients", "2"],
    "threeway_comparison.py": ["--rounds", "200", "--rollouts", "1"],
}


def test_every_script_has_a_tiny_size():
    assert sorted(TINY) == sorted(p.name for p in (ROOT / "scripts").glob("*.py"))


@pytest.mark.parametrize("name", sorted(TINY))
def test_script_runs_at_tiny_size(name):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *TINY[name]], cwd=ROOT,
                          env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
