"""The C single-client loops (fedres.native) against the Python loops, bit
for bit, and the loader's fallback.

Each case runs one system twice, once with the C loops and once with
native.LOOPS switched off, which leaves the Python loops - the reference -
and compares everything the run leaves behind, bit for bit with every NaN
taken as one value: predictions, models, the last fetch, the round count,
the frozen sums and any error. Hypothesis
draws SGD, ERM and fictitious play with dg and dl independently from 1 to
4, -0.0 among the features, initial models outside the ball, steps up to
1.0 (binding projections that nudge), radii small enough that the exact
learners bisect, and scales that blow a model up mid-run; one draw runs at
d >= 20. The examples are derandomized, so the module is deterministic.
"""

import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedres import native
from fedres.core import HyperParams
from fedres.engine import SgdSystem
from fedres.erm import ErmSystem
from fedres.errors import InvariantError

from test_sgd import dataset_from_streams

ROOT = Path(__file__).resolve().parent.parent
LEARNERS = [(SgdSystem, "aligned"), (ErmSystem, "erm"), (ErmSystem, "fictitious")]
needs_loops = pytest.mark.skipif(native.LOOPS is None, reason=str(native.FALLBACK_REASON))


def examples(n: int):
    """A fixed number of derandomized examples: the same cases on every run."""
    return settings(max_examples=n, deadline=None, derandomize=True, database=None)


@st.composite
def cases(draw, dims=st.integers(1, 4)):
    """A single-client system's constructor arguments: (class, streams,
    hyperparameters, variant, initial global, initial local)."""
    system, variant = draw(st.sampled_from(LEARNERS))
    rounds, dg, dl = draw(st.integers(1, 30)), draw(dims), draw(dims)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # 1e20 makes early Grams singular to within the base ridge; 1e80 and
    # up overflow a model or a loss within a few rounds
    scale_g, scale_l = (10.0 ** draw(st.sampled_from([0, 0, 0, -3, 3, 20, 80, 160]))
                        for _ in range(2))
    xg, xl = rng.normal(0, 1, (rounds, dg)) * scale_g, rng.normal(0, 1, (rounds, dl)) * scale_l
    if draw(st.booleans()):  # signed zeros, which a d = 1 product keeps
        xg[rng.random(xg.shape) < 0.3] = -0.0
        xl[rng.random(xl.shape) < 0.3] = -0.0
    y = rng.normal(0, 1, rounds) * draw(st.sampled_from([0.0, 1.0, 10.0]))
    radius = draw(st.sampled_from([0.01, 0.05, 0.3, 1.0, 100.0, 1e300]))
    step = st.sampled_from([1e-60, 0.05, 0.3, 1.0, 1e12])
    hyper = HyperParams(radius=radius, eta_global=draw(step), eta_local=draw(step))
    init = draw(st.sampled_from([0.0, 0.1, 3.0, -1e3]))  # 3.0 and -1e3 are outside most balls
    return system, (xg, xl, y), hyper, variant, np.full(dg, init), np.full(dl, -init)


def run(case, loops) -> tuple:
    """(error, state) of the case's run with native.LOOPS set to loops."""
    system_class, streams, hyper, variant, init_global, init_local = case
    system = system_class.build(dataset_from_streams([streams]), 0, hyper, len(streams[2]), 0,
                                variant=variant, init_global=init_global,
                                init_locals=[init_local])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(native, "LOOPS", loops)
        assert (system._native_columns() is not None) == (loops is not None)
        try:
            system.run()
            error = None
        except (InvariantError, np.linalg.LinAlgError) as exc:
            error = type(exc), str(exc)
    state = [system.prediction, system.wg, system.wl, system.fetched,
             system.channel._last_published]
    if system_class is ErmSystem:
        state += [system.frozen_rhs, system.frozen_rhs_g]
    # one NaN for every NaN: IEEE 754 leaves the sign and payload of an
    # operation's NaN to the implementation, and NumPy's SIMD loops and the
    # C compiler order the operands of a sum differently
    return error, [np.where(np.isnan(a), np.nan, a).tobytes() for a in map(np.asarray, state)]


def assert_same_run(case):
    want = run(case, None)
    assert run(case, native.LOOPS) == want


@needs_loops
@given(cases())
@examples(300)
def test_c_loops_match_the_python_loops(case):
    assert_same_run(case)


@needs_loops
@given(cases(dims=st.integers(20, 24)))
@examples(20)
def test_c_loops_match_the_python_loops_at_twenty_features(case):
    """dgemv and dgesv at sizes where OpenBLAS's kernels block the work."""
    assert_same_run(case)


@needs_loops
@pytest.mark.parametrize("system, variant", LEARNERS)
def test_blow_ups_raise_the_python_loops_error(system, variant):
    """The scales of test_single_client's diverging runs: the same error
    after the same round, in both loops."""
    rng = np.random.default_rng(0)
    for scale_g, scale_l, eta_global, eta_local in [(1.0, 1.0, 1e-3, 1e12),
                                                    (1.0, 1.0, 1e12, 1e-3),
                                                    (1e40, 1.0, 1e-60, 1e-60),
                                                    (1e20, 1e20, 1e-40, 1e-3)]:
        streams = (rng.normal(0, 1, (200, 2)) * scale_g, rng.normal(0, 1, (200, 2)) * scale_l,
                   rng.normal(0, 1, 200))
        hyper = HyperParams(radius=1e300, eta_global=eta_global, eta_local=eta_local)
        case = system, streams, hyper, variant, np.ones(2), np.ones(2)
        want = run(case, None)
        assert system is ErmSystem or want[0] is not None  # SGD blows up on each of them
        assert run(case, native.LOOPS) == want


@needs_loops
@pytest.mark.parametrize("variant", ["erm", "fictitious"])
def test_a_singular_system_raises_linalgerror_in_both_loops(variant):
    """Equal features of 1e10 make every Gram singular to within the base
    ridge, so the first solve fails as np.linalg.solve fails."""
    x = np.full((6, 2), 1e10)
    case = ErmSystem, (x, x.copy(), np.ones(6)), HyperParams(), variant, np.zeros(2), np.zeros(2)
    want = run(case, None)
    assert want[0] == (np.linalg.LinAlgError, "Singular matrix")
    assert run(case, native.LOOPS) == want


@pytest.mark.skipif(not (sys.platform == "linux" and platform.machine() == "x86_64"
                         and shutil.which("cc")
                         and list((Path(np.__file__).resolve().parent.parent / "numpy.libs")
                                  .glob("*scipy_openblas64*"))),
                    reason="needs Linux x86-64, cc on PATH and NumPy's scipy-openblas64")
def test_the_c_loops_load_where_they_can():
    """A broken build must not fall back unnoticed where it should work."""
    assert native.LOOPS is not None, native.FALLBACK_REASON
    assert native.FALLBACK_REASON is None


FALLBACK_RUN = """
import sys
import numpy as np
from fedres import native
from fedres.datagen import gen_appendixc
from fedres.engine import run_fedres_sgd
from fedres.erm import run_fedres_erm, run_fictitious_play
from fedres.core import HyperParams
print(native.FALLBACK_REASON)
ds, init = gen_appendixc(300, 0), np.array([1.0, 0.0])
for run in (run_fedres_sgd, run_fedres_erm, run_fictitious_play):
    res = run(ds, 0, HyperParams(eta_global=0.3, eta_local=0.3), 300, 0, init_global=init,
              init_locals=[init])
    sys.stdout.write(res.prediction.tobytes().hex() + res.final_global.tobytes().hex() + "\\n")
"""


def test_without_a_compiler_the_python_loops_give_the_same_bits(tmp_path):
    """With an empty PATH and a fresh cache, importing fedres names why the
    C loops are off, and run() gives the bits of the loops here."""
    env = {**os.environ, "PATH": "", "XDG_CACHE_HOME": str(tmp_path),
           "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                       os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", FALLBACK_RUN], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    reason, *lines = proc.stdout.splitlines()
    assert reason == "no C compiler: cc is not on PATH"
    assert not list(tmp_path.iterdir())  # nothing was built
    from fedres.datagen import gen_appendixc
    from fedres.engine import run_fedres_sgd
    from fedres.erm import run_fedres_erm, run_fictitious_play

    ds, init = gen_appendixc(300, 0), np.array([1.0, 0.0])
    for runner, line in zip((run_fedres_sgd, run_fedres_erm, run_fictitious_play), lines,
                            strict=True):
        res = runner(ds, 0, HyperParams(eta_global=0.3, eta_local=0.3), 300, 0,
                     init_global=init, init_locals=[init])
        assert res.prediction.tobytes().hex() + res.final_global.tobytes().hex() == line
