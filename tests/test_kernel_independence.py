"""The oracle checks do not depend on OpenBLAS's kernel.

The recorded fixtures hold only under the kernel they were recorded on
(see RECORDED_KERNEL in test_characterization.py), but the checks that
compare two computations on the running kernel must hold on any of them:
tests/test_differential.py (the loop oracles, and `@` against ndarray.dot),
tests/test_native.py (the C loops against the Python paths: the C rounds
against the blocks, the stacked exact path and the single-client loops,
where the C loops loaded),
the regret comparator against its per-iteration oracle in
tests/test_solver.py (whose skipped objective evaluations rest on a
rounding-error bound that must hold under any kernel) and criteria 3
and 5. This reruns them in one subprocess under OpenBLAS's Haswell
kernels, which round a dot product differently from this suite's
recording kernel, SkylakeX. Haswell needs AVX2. OPENBLAS_CORETYPE=Prescott
would run anywhere, but it selects the Katmai core, whose ddot rounds
differently when both operands sit 8 bytes off a 16-byte boundary, as
rows of a (..., 3) array do. The oracles' operands sit at other addresses
than the engine's, which is the likely reason five differential cases
fail there.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import blas_kernel
from fedres import native

ROOT = Path(__file__).resolve().parent.parent
CHECKS = ["tests/test_differential.py",
          "tests/test_solver.py::TestComparatorMatchesOracle",
          "tests/test_solver.py::test_screened_comparator_keeps_the_oracle_bits",
          "tests/test_acceptance.py::test_criterion_03_zero_delay_bit_equivalence",
          "tests/test_acceptance.py::test_criterion_05_minibatch_contracts"]
if native.LOOPS is not None:  # without them its C-loop cases skip, and no check may skip
    CHECKS.append("tests/test_native.py")
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
