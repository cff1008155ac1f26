"""The C loops (fedres.native) against the Python paths, bit for bit, and
the loader's fallback.

Each case runs one system twice, once with the C loops and once with
native.LOOPS switched off, which leaves the Python paths - the reference -
and compares everything the run leaves behind, bit for bit with every NaN
taken as one value.

The single-client cases compare predictions, models, the round count and
any error (a blow-up, an InvariantError naming its round) with the Python
single-client loops. Singular Gram blocks, from equal or scaled columns,
must get the same doubled ridge in both. Hypothesis draws SGD, ERM and
fictitious play with dg and dl independently from 1 to 4, -0.0 among the
features, initial models outside the ball, steps up to 1.0 (binding
projections that nudge), radii small enough that the exact learners
bisect, and scales that blow a model up mid-run; one draw runs at d >= 20.

The exact cases compare the exact learners' C round with their stacked
path (the single-client loop switched off), through run() and through a
step() sequence, on the single-client draws: predictions, models, the
channel's history, the round count and run()'s error.

The solver cases compare solve_gram's scalar path (native.solve) and the
regret comparator's alternations (native.alternate) with their Python
bodies: the scalar solve on duplicated and scaled columns, an overflowing
bracket and non-finite inputs; the fit on joint_fits' draws and on its
edges (empty blocks, a binding radius, a singular block, tol 0, and every
alternation proved up to the limit). The in-place test takes the models'
arrays before step() and run(), on every path.

The P-client cases compare SGD's C round with the block path, through
run() and through a step() sequence: predictions, residuals, models, the
channel's history, fetch counts, messages in flight, the round count and
the error, which names the round and the client. Hypothesis draws 1 to 6
clients with their own delays from 0 to 6 each way (warm-ups that end
client by client), dg and dl from 0 to 4 (the empty blocks of the
Independent and Central views), per-client steps, an infinite or NaN
global feature in a last row (which a client not live yet reads), and the
single-client draw's signed zeros, radii, inits and scales. The examples are
derandomized, so the module is deterministic.
"""

import math
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

from fedres import native, solver
from fedres.channel import DelayConfig
from fedres.core import HyperParams
from fedres.engine import SgdSystem
from fedres.erm import VARIANTS, ErmSystem
from fedres.errors import ConfigError, InvariantError
from fedres.solver import alternating_joint_ls, solve_gram

from test_sgd import dataset_from_streams
from test_solver import collinear_grams, joint_fits

ROOT = Path(__file__).resolve().parent.parent
LEARNERS = [(SgdSystem, "aligned"), (ErmSystem, "erm"), (ErmSystem, "fictitious")]
needs_loops = pytest.mark.skipif(native.LOOPS is None, reason=str(native.FALLBACK_REASON))


def examples(n: int):
    """A fixed number of derandomized examples: the same cases on every run."""
    return settings(max_examples=n, deadline=None, derandomize=True, database=None)


@st.composite
def cases(draw, dims=st.integers(1, 4), learners=LEARNERS):
    """A single-client system's constructor arguments: (class, streams,
    hyperparameters, variant, initial global, initial local)."""
    system, variant = draw(st.sampled_from(learners))
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
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(native, "LOOPS", loops)
        system = system_class.build(dataset_from_streams([streams]), 0, hyper,
                                    len(streams[2]), 0, variant=variant,
                                    init_global=init_global, init_locals=[init_local])
        assert (system._rounds is not None) == (loops is not None)
        error = outcome(system.run)
    return error, same_nans(system.prediction, system.wg, system.wl,
                            system.channel._last_published)


def outcome(call) -> tuple | None:
    """None, or the type and message of the InvariantError that call raised."""
    try:
        call()
    except InvariantError as exc:
        return type(exc), str(exc)
    return None


def same_nans(*arrays) -> list:
    """The arrays' bytes with one NaN for every NaN: IEEE 754 leaves the sign
    and payload of an operation's NaN to the implementation, and NumPy's
    SIMD loops and the C compiler order the operands of a sum differently."""
    return [np.where(np.isnan(a), np.nan, a).tobytes() for a in map(np.asarray, arrays)]


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
def test_a_singular_system_gives_the_same_finite_bits_in_both_loops(variant):
    """Equal features of 1e10 make every Gram singular to within the base
    ridge; both loops solve it at the same doubled ridge and finish the run
    with the same finite bits."""
    x = np.full((6, 2), 1e10)
    case = ErmSystem, (x, x.copy(), np.ones(6)), HyperParams(), variant, np.zeros(2), np.zeros(2)
    want = run(case, None)
    assert want[0] is None
    assert all(np.isfinite(np.frombuffer(a)).all() for a in want[1][:3])  # predictions, models
    assert run(case, native.LOOPS) == want


@needs_loops
@pytest.mark.parametrize("variant", ["erm", "fictitious"])
def test_a_bracket_that_overflows_gives_the_same_bits_in_both_loops(variant, monkeypatch):
    """Rows of about 1e80 put the right-hand sides near 1e160, whose
    squares overflow: the bisection's first bracket ||atb|| / radius comes
    from the scaled norm in both loops, which end on the ball with the same
    bits."""
    rng = np.random.default_rng(5)
    streams = tuple(rng.normal(0, 1e80, shape) for shape in [(8, 2), (8, 2), 8])
    case = ErmSystem, streams, HyperParams(radius=0.3), variant, np.zeros(2), np.zeros(2)
    overflows = []

    def norm_over(v, radius, plain=solver._norm_over):
        with np.errstate(over="ignore"):
            overflows.append(math.isinf(np.linalg.norm(v)))
        return plain(v, radius)

    monkeypatch.setattr(solver, "_norm_over", norm_over)
    want = run(case, None)
    assert want[0] is None and sum(overflows) >= 5  # the Python loop's brackets overflowed
    for model in want[1][1:3]:
        assert np.linalg.norm(np.frombuffer(model)) == pytest.approx(0.3, rel=1e-9)
    assert run(case, native.LOOPS) == want


@st.composite
def collinear_cases(draw):
    """An exact learner's case whose global and local columns copy, negate
    or scale one or two drawn columns, at a scale of 1 to 1e150, so that the
    base ridge often leaves a Gram block singular."""
    variant = draw(st.sampled_from(["erm", "fictitious"]))
    rounds, dg, dl = draw(st.integers(1, 12)), draw(st.integers(2, 4)), draw(st.integers(2, 4))
    scale = 10.0 ** draw(st.sampled_from([3, 7]) | st.integers(0, 150))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = rng.normal(0, scale, (rounds, 2))
    xg, xl = (base[:, rng.integers(0, 2, d)] * rng.choice([1.0, -1.0, 0.5, 3.0], d)
              for d in (dg, dl))
    y = rng.normal(0, 1, rounds) * draw(st.sampled_from([1.0, scale]))
    hyper = HyperParams(radius=draw(st.sampled_from([0.01, 1.0, 100.0])))
    return ErmSystem, (xg, xl, y), hyper, variant, np.zeros(dg), np.zeros(dl)


@needs_loops
@given(collinear_cases())
@examples(60)
def test_collinear_columns_give_the_same_bits_in_both_loops(case):
    """The doubled ridge of ridge_solve in C against solver._ridge_solve."""
    want = run(case, None)
    assert want[0] is None
    assert run(case, native.LOOPS) == want


@st.composite
def round_cases(draw):
    """A P-client SGD system's constructor arguments: (per-client streams,
    delays, hyperparameters, initial global, initial locals)."""
    clients, rounds = draw(st.integers(1, 6)), draw(st.integers(1, 30))
    dg, dl = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    alpha, beta = (draw(st.lists(st.integers(0, 6), min_size=clients, max_size=clients))
                   for _ in range(2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale_g, scale_l = (10.0 ** draw(st.sampled_from([0, 0, 0, -3, 3, 20, 80, 160]))
                        for _ in range(2))
    zeros = draw(st.booleans())  # signed zeros, which a d = 1 product keeps
    # in a last row, which a client not live yet reads first: its (2.0 * 0.0) x is NaN
    last = draw(st.sampled_from([None] * 6 + [math.inf, math.nan]))
    label = draw(st.sampled_from([0.0, 1.0, 10.0]))
    streams = []
    for _ in range(clients):
        xg, xl = rng.normal(0, 1, (rounds, dg)) * scale_g, rng.normal(0, 1, (rounds, dl)) * scale_l
        if zeros:
            xg[rng.random(xg.shape) < 0.3] = -0.0
            xl[rng.random(xl.shape) < 0.3] = -0.0
        if last is not None and dg and rng.random() < 0.5:
            xg[-1, 0] = last
        streams.append((xg, xl, rng.normal(0, 1, rounds) * label))
    step = st.sampled_from([1e-60, 0.05, 0.3, 1.0, 1e12])
    hyper = HyperParams(radius=draw(st.sampled_from([0.01, 0.05, 0.3, 1.0, 100.0, 1e300])),
                        eta_global=draw(step),
                        eta_local=draw(st.lists(step, min_size=clients, max_size=clients)))
    init = st.sampled_from([0.0, -0.0, 0.1, 3.0, -1e3])  # 3.0 and -1e3: outside most balls
    return (streams, DelayConfig(tuple(alpha), tuple(beta)), hyper, np.full(dg, draw(init)),
            [np.full(dl, draw(init)) for _ in range(clients)])


def run_rounds(case, loops, stepwise: bool) -> tuple:
    """(error, state) of the case's SGD run with native.LOOPS set to loops,
    through run() or a round at a time through step(); without the loops
    always in blocks, the reference."""
    streams, delays, hyper, init_global, init_locals = case
    rounds = len(streams[0][2])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(native, "LOOPS", loops)
        system = SgdSystem.build(dataset_from_streams(streams), delays, hyper, rounds, 0,
                                 init_global=init_global, init_locals=init_locals)
        assert (system._rounds is not None) == (loops is not None)
        system._single = False  # the one-client, zero-delay draws too
        with np.errstate(over="ignore", invalid="ignore"):  # as run() and the bandit set
            error = outcome(lambda: [system.step() for _ in range(rounds)] if stepwise
                            else system.run())
    channel = system.channel
    done = channel._last_published
    # rows past the last published round, and the history row of a failed
    # one, are scratch: a failed block leaves its later rows written
    written = channel._reach + done + (error is None)
    return error, same_nans(system.prediction[:done], system.residual[:done], system.wg,
                            system.wl, channel._history[:written], done,
                            channel.fetch_counts, channel.pending_payloads)


@needs_loops
@given(round_cases(), st.booleans())
@examples(300)
def test_the_c_round_matches_the_block_path(case, stepwise):
    want = run_rounds(case, None, stepwise)
    assert run_rounds(case, native.LOOPS, stepwise) == want


def run_exact(case, loops, stepwise: bool) -> tuple:
    """(error, state) of the case's exact learner with native.LOOPS set to
    loops, through run() or a round at a time through step(); without the
    loops always on the stacked path, the reference."""
    system_class, streams, hyper, variant, init_global, init_local = case
    rounds = len(streams[2])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(native, "LOOPS", loops)
        system = system_class.build(dataset_from_streams([streams]), 0, hyper, rounds, 0,
                                    variant=variant, init_global=init_global,
                                    init_locals=[init_local])
        assert (system._rounds is not None) == (loops is not None)
        system._single = False  # the stacked path, not the single-client loop
        error = outcome(lambda: [system.step() for _ in range(rounds)] if stepwise
                        else system.run())
    channel = system.channel
    done = channel._last_published
    return error, same_nans(system.prediction[:done], system.wg, system.wl,
                            channel._history[:channel._reach + done + 1], done,
                            channel.fetch_counts)


@needs_loops
@given(cases(learners=LEARNERS[1:]), st.booleans())
@examples(200)
def test_the_exact_c_round_matches_the_stacked_path(case, stepwise):
    """The exact learners' C round writes what their stacked path writes:
    predictions, models, the channel's history, the round count and
    run()'s error, a non-finite loss."""
    want = run_exact(case, None, stepwise)
    assert run_exact(case, native.LOOPS, stepwise) == want


@needs_loops
def test_rows_the_c_round_cannot_read_take_the_block_path():
    """The C round reads whole-element strides of aligned float64 rows, with
    unit-stride features where a block has two or more: a gathered stream
    (the bandit's) and the client-major views of build_streams qualify;
    float32 rows and features at a stride of two do not."""
    x, y = np.zeros((2, 5, 3, 1, 4)), np.zeros((5, 3, 1))

    def rounds(xg, xl, label):
        return SgdSystem((xg, xl, label), DelayConfig.uniform(3, 1, 2), HyperParams())._rounds

    assert rounds(x[0], x[1], y) is not None
    assert rounds(x[0].swapaxes(0, 1).copy().swapaxes(0, 1), x[1, ..., :1], y) is not None
    assert rounds(x[0, ..., ::4], x[1, ..., ::4], y) is not None  # one feature: any stride
    for args in [(x[0].astype(np.float32), x[1], y), (x[0], x[1], y.astype(np.float32)),
                 (x[0, ..., ::2], x[1], y), (x[0], x[1, ..., ::2], y)]:
        assert rounds(*args) is None


@needs_loops
def test_rows_the_exact_c_round_cannot_read_take_the_python_loop():
    """The exact learners' C round reads the rows by readable()'s rule, as
    SGD's does, and needs a feature in each block: rows at any row stride
    qualify, and give the Python loop's bits; features at a stride of two,
    float32 labels, an empty block and unequal row counts do not."""
    rng = np.random.default_rng(4)
    x, y = rng.normal(0, 1, (12, 1, 1, 4)), rng.normal(0, 1, (12, 1, 1))

    def system(xg, xl, label, variant="erm"):
        return ErmSystem((xg, xl, label), DelayConfig.uniform(1), HyperParams(radius=0.5),
                         variant=variant)

    for args in [(x, x, y), (x[::2], x[::2], y[::2]),  # every other row
                 (x[::-1], x[..., :2], y[::-1])]:  # backwards; rows wider than a block
        for variant in VARIANTS:
            runs = []
            for loops in [native.LOOPS, None]:
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(native, "LOOPS", loops)
                    built = system(*args, variant)
                assert (built._rounds is not None) == (loops is not None)
                built.run()
                runs.append(same_nans(built.prediction, built.wg, built.wl))
            assert runs[0] == runs[1]
    for args in [(x[..., ::2], x[..., :2], y), (x, x, y.astype(np.float32)),
                 (x, x[..., :0], y), (x, x[:5], y)]:
        assert system(*args)._rounds is None


@pytest.mark.parametrize("system, variant", LEARNERS)
def test_models_of_another_width_are_config_errors(system, variant):
    """The C loops write the models in place, so their widths are checked first."""
    streams = np.zeros((5, 2)), np.zeros((5, 3)), np.zeros(5)
    for init_global, init_local in [(np.zeros(3), np.zeros(3)), (np.zeros(2), np.zeros(2)),
                                    (np.zeros((1, 2)), np.zeros(3))]:
        with pytest.raises(ConfigError, match="dimension"):
            system.build(dataset_from_streams([streams]), 0, HyperParams(), 5, 0,
                         variant=variant, init_global=init_global, init_locals=[init_local])


def python(call, *args):
    """call(*args) with the C loops switched off."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(native, "LOOPS", None)
        return call(*args)


def assert_same_solve(ata, atb, radius):
    """solver._solve_one in C against its Python body, bit for bit, on a
    problem whose base-ridge solve solve_gram would hand it: outside the
    ball or not finite."""
    with np.errstate(invalid="ignore", over="ignore"):
        w = solver._stacked_solve(ata + solver._ridge_diagonal(len(atb)), atb)
        assert not math.sqrt(w.dot(w)) <= radius
    want = python(solver._solve_one, ata, atb, radius, w)
    assert same_nans(solver._solve_one(ata, atb, radius, w)) == same_nans(want)
    return want


@needs_loops
def test_the_scalar_solve_gives_the_python_bits():
    """Duplicated and scaled columns at scales up to 1e150, whose Gram
    blocks the base ridge often leaves singular: every row that takes the
    scalar path, through native.solve and through the Python body. 60
    derandomized draws (collinear_grams); at least 20 rows must be singular
    at the base ridge, and 20 finite there but outside the ball."""
    kinds = {"singular": 0, "outside": 0}

    @examples(60)
    @given(collinear_grams())
    def check(grams):
        ata, atb, radius = grams
        with np.errstate(invalid="ignore", over="ignore"):
            w = solver._stacked_solve(ata + solver._ridge_diagonal(ata.shape[-1]), atb)
            scalar = ~(np.sqrt(np.vecdot(w, w)) <= radius)
        for i in np.flatnonzero(scalar):
            assert_same_solve(ata[i], atb[i], radius)
            kinds["singular" if np.isnan(w[i]).any() else "outside"] += 1

    check()
    assert min(kinds.values()) >= 20, kinds


@needs_loops
def test_the_scalar_solve_gives_the_python_bits_at_its_ends():
    """The doubled ridge of a singular system (-BASE_RIDGE I; two equal
    columns of 2**26 or 2**498), the bracket whose squares overflow
    (entries of about 1e181), and the non-finite ends: NaN and infinite
    right-hand sides, infinite and NaN Gram entries."""
    x26, x498, x200 = (np.full(2, 2.0**k) for k in (26, 498, 200))
    cases = [(-solver.BASE_RIDGE * np.eye(2), np.ones(2), 1e-3),
             (np.outer(x26, x26), 3.0 * x26, 1e-3), (np.outer(x498, x498), 3.0 * x498, 1.0),
             (np.outer(x200, x200), 3.0 * 2.0**400 * x200, 1.0),
             (np.eye(2), np.array([math.nan, 1.0]), 1.0), (np.eye(2), np.array([math.inf, 1.0]), 1.0),
             (np.full((2, 2), math.inf), np.ones(2), 1.0),
             (np.array([[1.0, math.nan], [math.nan, 1.0]]), np.ones(2), 1.0)]
    answers = [assert_same_solve(*case) for case in cases]
    assert all(np.isfinite(w).all() for w in answers[:4])
    assert np.isnan(answers[4]).any() and not np.isfinite(answers[5]).all()


def assert_same_fit(xg, xl, y, radius, tol):
    """alternating_joint_ls with its alternations in C against its Python
    loop, bit for bit; returns how many alternations the C loop proved."""
    want = python(alternating_joint_ls, xg, xl, y, radius, tol)
    handed = []

    def alternate(*args, c=native.alternate):
        handed.append(c(*args))
        return handed[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(native, "alternate", alternate)
        got = alternating_joint_ls(xg, xl, y, radius, tol)
    assert same_nans(*got[:2]) == same_nans(*want[:2]) and got[2].hex() == want[2].hex()
    return handed[0][0]


@needs_loops
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
@given(joint_fits())
@examples(100)
def test_the_c_fit_matches_the_python_loop(fit):
    """joint_fits' draws (P 1-6, dg and dl 0-4, scales 1e-150 to 1e152,
    binding and loose radii, tol 0 to 1e-4)."""
    assert_same_fit(*fit)


@needs_loops
@pytest.mark.parametrize("case", ["zero-width global", "zero-width local", "binding",
                                  "singular", "tol 0", "max alternations"])
def test_the_c_fit_matches_the_python_loop_on_its_edges(case):
    """Each edge the C loop has: an empty block, a radius that binds on
    both sides, a local block singular at the base ridge (two equal columns
    of 1e10), tol 0, and a fit whose screen proves all _MAX_ALTERNATIONS
    alternations (nearly collinear global and local features). The C loop
    proves at least one alternation in each."""
    rng = np.random.default_rng(3)
    xg, xl = rng.normal(0, 1, (3, 40, 2)), rng.normal(0, 1, (3, 40, 2))
    y = xg @ np.ones(2) + xl @ np.ones(2) + rng.normal(0, 0.1, (3, 40))
    radius, tol = 10.0, 1e-8
    if case.startswith("zero-width"):
        xg, xl = (xg[..., :0], xl) if case == "zero-width global" else (xg, xl[..., :0])
    elif case == "binding":
        radius = 0.2
    elif case == "singular":
        xl = np.repeat(xl[..., :1] * 1e10, 2, axis=2)
    elif case == "tol 0":
        tol = 0.0
    else:
        xg = xg[:1, :, :1]
        xl = xg + 0.03 * rng.normal(0, 1, xg.shape)
        y, tol = xg[..., 0] + xl[..., 0] + rng.normal(0, 0.1, (1, 40)), 0.0
    proved = assert_same_fit(xg, xl, y, radius, tol)
    assert proved > 0 and (proved == solver._MAX_ALTERNATIONS) == (case == "max alternations")


@pytest.mark.parametrize("loops", ["C", "Python"])
@pytest.mark.parametrize("clients, delay", [(1, 0), (3, 1)])
@pytest.mark.parametrize("system, variant", LEARNERS)
def test_the_models_are_written_in_place(system, variant, clients, delay, loops, monkeypatch):
    """wg and wl are written in place on every path: through step() (the
    C round, or blocks of one and the stacked path) and run() (the C round,
    the single-client loop, blocks or the stacked path), an array taken
    from system.wg before is system.wg after, and holds the new model."""
    if loops == "C" and native.LOOPS is None:
        pytest.skip(f"the C loops are off: {native.FALLBACK_REASON}")
    if loops == "Python":
        monkeypatch.setattr(native, "LOOPS", None)
    rng = np.random.default_rng(7)
    streams = [(rng.normal(0, 1, (12, 2)), rng.normal(0, 1, (12, 2)), rng.normal(0, 1, 12))
               for _ in range(clients)]

    def build():
        return system.build(dataset_from_streams(streams), delay, HyperParams(radius=0.5), 12, 0,
                            variant=variant)

    stepped, ran = build(), build()
    wg, wl = stepped.wg, stepped.wl
    for t in range(1, 13):
        before = wg.copy()
        stepped.step()
        assert stepped.wg is wg and stepped.wl is wl
        assert wg.tobytes() == stepped.channel._history[stepped.channel._reach + t].tobytes()
    assert wg.tobytes() != before.tobytes()
    wg, wl = ran.wg, ran.wl
    ran.run()
    assert ran.wg is wg and ran.wl is wl
    assert same_nans(wg, wl) == same_nans(stepped.wg, stepped.wl)


@pytest.mark.skipif(not (sys.platform == "linux" and platform.machine() == "x86_64"
                         and shutil.which("cc")
                         and list((Path(np.__file__).resolve().parent.parent / "numpy.libs")
                                  .glob("*scipy_openblas64*"))),
                    reason="needs Linux x86-64, cc on PATH and NumPy's scipy-openblas64")
def test_the_c_loops_load_where_they_can():
    """A broken build must not fall back unnoticed where it should work."""
    assert native.LOOPS is not None, native.FALLBACK_REASON
    assert native.FALLBACK_REASON is None


@needs_loops
@pytest.mark.skipif(not shutil.which("cc"), reason="no C compiler: cc is not on PATH")
def test_the_c_loops_compile_without_a_warning(tmp_path):
    """-Wall -Wextra -Werror catch a variable or status left unused. Where
    the loops did not build, test_the_c_loops_load_where_they_can speaks."""
    proc = subprocess.run(["cc", *native.FLAGS, "-Wall", "-Wextra", "-Werror", "-o",
                           str(tmp_path / "loops.so"), str(native.SOURCE), "-lm"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


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
