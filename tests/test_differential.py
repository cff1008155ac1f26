"""Random configurations against the loop oracles, bit for bit.

Hypothesis draws small delayed-SGD runs - 1 to 5 clients, per-client
delays 0..6, horizons up to 40 with a batch size dividing them, every
variant, a radius from binding to loose, inits outside the ball and
per-client steps - and compares the engine with tests/sgd_oracle.py. The
exact learners run against tests/erm_oracle.py (uniform delays, at
test_erm's tolerances), the bandit against tests/bandit_oracle.py, and
Independent and Central reach the oracle through harness.dispatch. One
client at zero delay with batch size 1 - the three-way protocol's shape,
which the general draw reaches about once in 245 examples - has its own
draw for every learner. compute_regret runs against
tests/joint_ls_oracle.py and a per-record loop on drawn SGD and exact runs.
The examples are derandomized, so the module is deterministic. The oracles
take 1-D `@` where the single-client loops and the 1-D projection take
ndarray.dot; the first test pins how the two entry points agree.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedres.bandit import draw_episode, make_realizable_env, run_epsilon_greedy
from fedres.baselines import central_view, independent_view
from fedres.channel import as_delay_config
from fedres.core import HyperParams
from fedres.engine import VARIANTS, SgdSystem, block_length, run_fedres_sgd
from fedres.erm import run_fedres_erm, run_fictitious_play
from fedres.harness import ExperimentConfig, compute_regret, dispatch

import bandit_oracle
import erm_oracle
from conftest import stepped_sgd_system
from joint_ls_oracle import alternating_joint_ls_oracle, client_blocks
from sgd_oracle import alignment_offsets, run_oracle
from test_bandit import assert_same_bits
from test_sgd import dataset_from_streams


def examples(n: int):
    """A fixed number of derandomized examples: the same cases on every run."""
    return settings(max_examples=n, deadline=None, derandomize=True, database=None)


RADII = (0.05, 0.3, 1.0, 3.0, 100.0)  # binding every round .. never binding
# signed zeros, subnormals and magnitudes near 1e+-150, whose products are near 1e+-300
SPECIAL = (0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e-150, -3e-150, 1e150, -7e149, 1.0)


def test_dot_keeps_the_bits_of_matmul():
    """On contiguous (d,).(d,) and (d, d).(d,) operands, d = 1..4, `@` has the
    bits of `0.0 + .dot`, and of `.dot` itself for d >= 2: both make the
    same BLAS call (ddot, dgemv), except that at d = 1 `.dot` is the bare
    product, whose zero may be -0.0, and `@` adds that to 0.0. 5,000 draws
    per shape and d, a quarter of the entries from SPECIAL and the rest
    normal draws scaled by 10**k, k in [-150, 150]."""
    rng = np.random.default_rng(18)

    def entries(*shape):
        x = rng.normal(size=shape) * 10.0 ** rng.integers(-150, 151, size=shape)
        pick = rng.random(shape) < 0.25
        x[pick] = rng.choice(SPECIAL, size=np.count_nonzero(pick))
        return x

    for d in range(1, 5):
        v = entries(5000, d)
        for a in entries(5000, d), entries(5000, d, d):
            dot = np.array([x.dot(y) for x, y in zip(a, v)])
            matmul = np.array([x @ y for x, y in zip(a, v)])
            assert_same_bits(matmul, 0.0 + dot)
            if d > 1:
                assert_same_bits(matmul, dot)
            assert np.array_equal(matmul, dot)  # at d = 1 only a zero's sign may differ


@st.composite
def runs(draw, max_clients=5, max_dim=3):
    """A dataset and everything run_fedres_sgd takes besides it."""
    clients = draw(st.integers(1, max_clients))
    side = st.lists(st.integers(0, 6), min_size=clients, max_size=clients).map(tuple)
    rounds = draw(st.integers(1, 40))
    dg, dl = draw(st.integers(1, max_dim)), draw(st.integers(1, max_dim))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    streams = [(rng.normal(0, 1, (rounds, dg)), rng.normal(0, 1, (rounds, dl)),
                rng.normal(0, 1, rounds)) for _ in range(clients)]
    radius = draw(st.sampled_from(RADII))
    step = st.floats(0.01, 0.6)
    hyper = HyperParams(radius=radius, eta_global=draw(step),
                        eta_local=tuple(draw(st.lists(step, min_size=clients,
                                                      max_size=clients))))
    outside = 1.5 * radius / np.sqrt(max(dg, dl))  # every coordinate this size: outside
    return dict(
        dataset=dataset_from_streams(streams),
        delays=(draw(side), draw(side)),
        hyper=hyper,
        rounds=rounds,
        batch_size=draw(st.sampled_from([b for b in range(1, rounds + 1) if rounds % b == 0])),
        variant=draw(st.sampled_from(VARIANTS)),
        init_global=np.full(dg, outside),
        init_locals=[np.full(dl, outside if i % 2 == 0 else -0.1) for i in range(clients)],
    )


def single_client(case: dict) -> dict:
    """The case with one client (drawn so), zero delays, batch size 1 and the
    aligned rule."""
    return {**case, "delays": ((0,), (0,)), "batch_size": 1, "variant": "aligned"}


def assert_matches_oracle(res, want):
    assert_same_bits(res.prediction, want["prediction"])
    assert_same_bits(res.final_global, want["final_global"])
    assert_same_bits(np.array(res.final_locals), want["final_locals"])
    assert res.fetch_counts == want["fetch_counts"]


@given(runs())
@examples(250)
def test_sgd_matches_the_loop_oracle(case):
    args = case["dataset"], case["delays"], case["hyper"], case["rounds"], 0
    kwargs = {k: case[k] for k in ("variant", "batch_size", "init_global", "init_locals")}
    want = run_oracle(*args, **kwargs)
    assert_matches_oracle(run_fedres_sgd(*args, **kwargs), want)
    assert alignment_offsets(stepped_sgd_system(*args, **kwargs)) == want["offsets"]


@given(runs(max_clients=1).map(single_client))
@examples(60)
def test_single_client_sgd_matches_the_loop_oracle(case):
    args = case["dataset"], case["delays"], case["hyper"], case["rounds"], 0
    inits = {k: case[k] for k in ("init_global", "init_locals")}
    assert_matches_oracle(run_fedres_sgd(*args, **inits), run_oracle(*args, **inits))


@given(runs(max_clients=1, max_dim=1).map(single_client), st.sampled_from(("erm", "fictitious")))
@examples(40)
def test_single_client_exact_learners_match_the_archive_oracle(case, variant):
    assert_exact_matches_oracle(case, variant, delays=(0, 0))


@given(runs(), st.sampled_from(("independent", "central")))
@examples(80)
def test_views_through_dispatch_match_the_oracle(case, algo):
    """dispatch runs Independent with zero delays and Central with the
    config's uniform delays, on the view build_dataset would hand it."""
    assert_view_matches_oracle(case, algo)


@given(runs(max_clients=1).map(single_client), st.sampled_from(("independent", "central")))
@examples(20)
def test_single_client_views_match_the_oracle(case, algo):
    """One block of each view is empty (d = 0)."""
    assert_view_matches_oracle(case, algo)


def assert_view_matches_oracle(case, algo):
    ds, hyper = case["dataset"], case["hyper"]
    alpha, beta = case["delays"][0][0], case["delays"][1][0]
    cfg = ExperimentConfig(algo=algo, rounds=case["rounds"], clients=ds.n_clients, alpha=alpha,
                           beta=beta, batch_size=case["batch_size"], radius=hyper.radius,
                           eta_global=hyper.eta_global, eta_local=hyper.eta_local[0])
    view = (independent_view if algo == "independent" else central_view)(ds)
    want = run_oracle(view, 0 if algo == "independent" else (alpha, beta), cfg.hyper(),
                      cfg.rounds, 0, batch_size=cfg.batch_size)
    assert_matches_oracle(dispatch(cfg, view, 0), want)


@given(runs(max_clients=3, max_dim=1), st.sampled_from(("erm", "fictitious")))
@examples(60)
def test_exact_learners_match_the_archive_oracle(case, variant):
    """One feature per block: no archive is rank-deficient, where the base
    ridge would magnify the two paths' last-bit differences (test_erm)."""
    delays = (case["delays"][0][0], case["delays"][1][0])  # uniform across clients
    assert_exact_matches_oracle(case, variant, delays)


def assert_exact_matches_oracle(case, variant, delays):
    ds, hyper = case["dataset"], case["hyper"]
    inits = {k: case[k] for k in ("init_global", "init_locals")}
    runner = run_fedres_erm if variant == "erm" else run_fictitious_play
    res = runner(ds, delays, hyper, case["rounds"], 0, **inits)
    want = erm_oracle.run_oracle(ds, delays, hyper, case["rounds"], 0, variant, **inits)
    assert res.final_global == pytest.approx(want.final_global, rel=1e-9, abs=1e-12)
    assert res.loss.ravel().tolist() == pytest.approx(want.loss.ravel().tolist(), rel=1e-8,
                                                      abs=1e-12)
    assert res.fetch_counts == want.fetch_counts


def oracle_regret(res, radius: float) -> float:
    """Average regret against tests/joint_ls_oracle.py's comparator, priced
    record by record: each batch's mean squared loss, summed in record order
    from 0.0."""
    wg, wls, _ = alternating_joint_ls_oracle(*client_blocks(res), radius)
    total = 0.0
    for n in range(res.rounds):
        for i, wl in enumerate(wls):
            sq = [(y - (float(xg @ wg) + float(xl @ wl))) ** 2 for xg, xl, y in
                  zip(res.x_global[n, i], res.x_local[n, i], res.label[n, i].tolist())]
            total += float(res.loss[n, i]) - float(np.mean(sq))
    return total / res.loss.size


@given(runs(), st.sampled_from(("sgd", "erm", "fictitious")))
@examples(60)
def test_regret_matches_the_joint_ls_oracle(case, learner):
    """compute_regret at the run's radius and at one where every comparator
    solve binds, on SGD runs of every variant and batch size and on exact
    runs (uniform delays, batch size 1)."""
    args = case["dataset"], case["delays"], case["hyper"], case["rounds"], 0
    inits = {k: case[k] for k in ("init_global", "init_locals")}
    if learner == "sgd":
        res = run_fedres_sgd(*args, variant=case["variant"], batch_size=case["batch_size"],
                             **inits)
    else:
        delays = (case["delays"][0][0], case["delays"][1][0])
        runner = run_fedres_erm if learner == "erm" else run_fictitious_play
        res = runner(case["dataset"], delays, *args[2:], **inits)
    for radius in (case["hyper"].radius, 0.05):
        assert compute_regret(res, radius=radius) == oracle_regret(res, radius)


@given(st.integers(1, 4), st.integers(0, 2**32 - 1), st.integers(2, 4), st.integers(1, 5),
       st.integers(1, 30), st.sampled_from((0.0, 0.1)), st.sampled_from((0.3, 1.5, 100.0)),
       st.data())
@examples(100)
def test_bandit_matches_the_per_block_oracle(clients, seed, k, period, rounds, noise, radius,
                                              data):
    side = st.lists(st.integers(0, 4), min_size=clients, max_size=clients).map(tuple)
    delays = data.draw(side), data.draw(side)
    steps = data.draw(st.lists(st.floats(0.05, 0.6), min_size=clients, max_size=clients))
    hyper = HyperParams(radius=radius, eta_global=0.3, eta_local=tuple(steps))
    env = make_realizable_env(k, clients, 2, 2, seed % 1000, noise_sigma=noise)
    res = run_epsilon_greedy(draw_episode(env, rounds, seed), delays, hyper, period)
    want = bandit_oracle.run_epsilon_greedy(env, delays, hyper, rounds, period, seed)
    for name in ("action", "prediction", "label", "x_global", "x_local", "final_global"):
        assert_same_bits(getattr(res, name), want[name])
    assert_same_bits(np.array(res.final_locals), want["final_locals"])
    assert res.exploration_rounds == want["exploration_rounds"]


def long_delay_case(clients: int, rounds: int, seed: int, radius: float = 0.3) -> dict:
    """A random dataset, every client's steps and a radius that binds."""
    rng = np.random.default_rng(seed)
    streams = [(rng.normal(0, 1, (rounds, 2)), rng.normal(0, 1, (rounds, 3)),
                rng.normal(0, 1, rounds)) for _ in range(clients)]
    hyper = HyperParams(radius=radius, eta_global=0.2,
                        eta_local=tuple(0.1 + 0.05 * i for i in range(clients)))
    return dict(dataset=dataset_from_streams(streams), hyper=hyper,
                rounds=rounds, init_global=np.full(2, 0.4),
                init_locals=[np.full(3, -0.3)] * clients)


def assert_case_matches_oracle(case, delays, **kwargs):
    args = case["dataset"], delays, case["hyper"], case["rounds"], 0
    kwargs.update(init_global=case["init_global"], init_locals=case["init_locals"])
    assert_matches_oracle(run_fedres_sgd(*args, **kwargs), run_oracle(*args, **kwargs))


@pytest.mark.parametrize("batch_size", (1, 10))
def test_long_delays_match_the_oracle(batch_size):
    """alpha = beta = 100: blocks of 101 rounds at b = 1 and of 11 batch
    rounds at b = 10, and a ball that binds."""
    assert_case_matches_oracle(long_delay_case(3, 600, 1), (100, 100), batch_size=batch_size)


def test_per_client_delays_ending_on_a_partial_block_match_the_oracle():
    """Blocks of min(4 + 1, 3 + 4) = 5 rounds over a 23-round horizon: four
    whole blocks, a partial one, and warm-up blocks where only some clients
    are live on either side."""
    case = long_delay_case(3, 23, 2)
    delays = ((3, 7, 0), (4, 9, 6))
    assert block_length(as_delay_config(delays, 3)) == 5
    assert_case_matches_oracle(case, delays)


def test_central_view_with_long_delays_matches_the_oracle():
    case = long_delay_case(2, 120, 3)
    view = central_view(case["dataset"])
    cfg = ExperimentConfig(algo="central", rounds=120, clients=2, alpha=7, beta=12,
                           radius=case["hyper"].radius, eta_global=0.2, eta_local=0.1)
    want = run_oracle(view, (7, 12), cfg.hyper(), 120, 0)
    assert_matches_oracle(dispatch(cfg, view, 0), want)


@pytest.mark.parametrize("delays,variant,batch_size,length", [
    ((5, 5), "aligned", 1, 6),  # min(beta + 1, alpha + beta)
    ((100, 100), "aligned", 1, 101),
    ((0, 3), "aligned", 1, 3),  # alpha + beta binds
    ((3, 0), "aligned", 1, 1),
    ((0, 0), "aligned", 1, 1),  # a fresh round trip steps on its own round
    (((1, 4), (3, 2)), "aligned", 1, 3),  # the smallest over clients
    (((0, 4), (0, 2)), "aligned", 1, 1),  # one fresh client
    ((5, 5), "misaligned", 1, 1),
    ((5, 5), "asymmetric", 1, 1),
    ((100, 100), "aligned", 10, 11),  # in batch rounds: ceil(100 / 10) = 10
    ((5, 5), "aligned", 10, 2),
    ((20, 0), "aligned", 10, 1),
])
def test_block_length_table(delays, variant, batch_size, length):
    config = as_delay_config(delays, 2).batched(batch_size)
    assert block_length(config, variant) == length
    case = long_delay_case(2, 20, 4)
    system = SgdSystem.build(case["dataset"], delays, case["hyper"], 20, 0, batch_size,
                             variant=variant)
    assert system.block == length
