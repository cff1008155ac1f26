"""The oracle checks do not depend on OpenBLAS's kernel.

The recorded fixtures hold only under the kernel they were recorded on
(see RECORDED_KERNEL in test_characterization.py), but the checks that
compare two computations on the running kernel must hold on any of them:
tests/test_differential.py (the loop oracles, and `@` against ndarray.dot),
tests/test_native.py (the C single-client loops against the Python ones)
and criteria 3 and 5. This reruns them in one subprocess under OpenBLAS's
Haswell kernels, which round a dot product differently from this suite's
recording kernel, SkylakeX. Haswell needs AVX2. The SSE3-only Prescott
kernels would run anywhere, but their ddot is not symmetric: `x @ y` and
`y @ x` differ at d >= 3, and the engine takes x . w where the oracles
take w @ x, so seven differential cases fail there.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import blas_kernel

ROOT = Path(__file__).resolve().parent.parent
CHECKS = ["tests/test_differential.py", "tests/test_native.py",
          "tests/test_acceptance.py::test_criterion_03_zero_delay_bit_equivalence",
          "tests/test_acceptance.py::test_criterion_05_minibatch_contracts"]
KERNEL_PROBE = ("import sys; sys.path[:0] = ['tests']; "
                "from conftest import blas_kernel; print(blas_kernel())")


def _has_avx2() -> bool:
    try:
        return "avx2" in Path("/proc/cpuinfo").read_text().split()
    except OSError:
        return False


@pytest.mark.skipif(not _has_avx2(), reason="OpenBLAS's Haswell kernels need AVX2")
def test_oracle_checks_pass_under_the_haswell_kernel():
    env = {**os.environ, "OPENBLAS_CORETYPE": "Haswell",
           "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                       os.environ.get("PYTHONPATH")]))}
    run = dict(cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    if blas_kernel() is not None:  # an OpenBLAS that names its core: check the switch took
        probe = subprocess.run([sys.executable, "-c", KERNEL_PROBE], **run)
        assert probe.stdout.strip() == "Haswell", probe.stdout + probe.stderr
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           *CHECKS], **run)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert "passed" in proc.stdout and "skipped" not in proc.stdout, proc.stdout[-500:]
