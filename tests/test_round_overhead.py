"""Python calls per round of the learners, counted under cProfile.

The learners are bound by interpreter overhead, and wall time on a shared
host moves by 2x between sessions; the number of Python-level calls a
round makes inside fedres does not. Each case runs one harness.dispatch
under cProfile and counts the calls whose code lives in the fedres
package (set-up included), divided by the rounds. The bounds are the
measured counts, so a change that adds Python calls to every round fails
here. Every case but the -native ones runs with the C loops
(fedres.native) switched off. The appendixc cases (one client, zero delay)
then run the Python single-client loop, whose only per-round calls are
SGD's two projections and the exact learners' two solves and two
prefix-sum reads; their -native twins run the C loops, which make no
Python call per round: what they count is set-up. The delayed SGD cases
run blocks of several rounds, whose only per-round calls are the
projections; their -native twins run every round in one call of the C
round, so they count set-up and the regret comparator. The delayed exact
cases run the stacked P-client path a round at a time, through the
engine's round skeleton, the two solves and the two prefix-sum reads.

The regret comparator's work is bounded the same way: the number of times
solver.alternating_joint_ls evaluates its n-row objective per fit, which
its Gram-space screen keeps to the alternations it cannot decide, and the
Python calls of a whole fit, on the three-way protocol's data and on the
sweep's shape, with its screened alternations in Python and in C.
"""

import cProfile
from pathlib import Path

import numpy as np
import pytest

import fedres
from fedres import native, solver
from fedres.core import DEFAULT_RADIUS
from fedres.datagen import MulticlassCorpus, gen_appendixc, partition_federated
from fedres.engine import build_streams
from fedres.harness import ExperimentConfig, build_dataset, dispatch

PACKAGE = str(Path(fedres.__file__).parent)
APPENDIXC = dict(data="appendixc", clients=1, rounds=2000, eta_global=0.05, eta_local=0.05)
INIT = np.array([1.0, 0.0])
# name: (config, init, calls per round)
CASES = {
    "sgd-appendixc": (ExperimentConfig(algo="fedres-sgd", **APPENDIXC), INIT, 2.0345),
    "erm-appendixc": (ExperimentConfig(algo="fedres-erm", **APPENDIXC), INIT, 4.3545),
    "fictitious-appendixc": (ExperimentConfig(algo="fictitious", **APPENDIXC), INIT, 4.274),
    "sgd-appendixc-native": (ExperimentConfig(algo="fedres-sgd", **APPENDIXC), INIT, 0.044),
    "erm-appendixc-native": (ExperimentConfig(algo="fedres-erm", **APPENDIXC), INIT, 0.0325),
    "fictitious-appendixc-native": (ExperimentConfig(algo="fictitious", **APPENDIXC), INIT,
                                    0.0325),
    # delayed SGD in blocks of min(beta + 1, alpha + beta) rounds: 6, then 101
    "sgd-fleet": (ExperimentConfig(algo="fedres-sgd", clients=100, rounds=500, alpha=5, beta=5),
                  None, 6.152),
    "sgd-long-delay": (ExperimentConfig(algo="fedres-sgd", clients=10, rounds=2000, alpha=100,
                                        beta=100), None, 2.0355),
    "sgd-fleet-native": (ExperimentConfig(algo="fedres-sgd", clients=100, rounds=500, alpha=5,
                                          beta=5), None, 2.514),
    "sgd-long-delay-native": (ExperimentConfig(algo="fedres-sgd", clients=10, rounds=2000,
                                               alpha=100, beta=100), None, 0.0885),
    # the exact learners' stacked path, a round at a time
    "erm-delayed": (ExperimentConfig(algo="fedres-erm", clients=2, rounds=2000, alpha=1, beta=1),
                    None, 10.182),
    "fictitious-delayed": (ExperimentConfig(algo="fictitious", clients=2, rounds=2000, alpha=1,
                                            beta=1), None, 11.132),
}


def calls_per_round(cfg: ExperimentConfig, init) -> float:
    dataset = build_dataset(cfg, 0)
    profile = cProfile.Profile()
    profile.runcall(dispatch, cfg, dataset, 0, init)
    # per code object: pstats would merge two comprehensions that share a line
    calls = sum(entry.callcount for entry in profile.getstats()
                if not isinstance(entry.code, str) and entry.code.co_filename.startswith(PACKAGE))
    return calls / cfg.rounds


@pytest.mark.parametrize("name", CASES)
def test_calls_per_round_stay_within_bound(name, monkeypatch):
    cfg, init, bound = CASES[name]
    if name.endswith("-native"):
        if native.LOOPS is None:
            pytest.skip(f"the C loops are off: {native.FALLBACK_REASON}")
    else:
        monkeypatch.setattr(native, "LOOPS", None)
    assert calls_per_round(cfg, init) <= bound


def sweep_dataset():
    """The sweep workload's shape: a 10-class corpus of 3,000 rows and 40
    features, about a third of them zero, carved into 10 clients' tasks
    with 20 global and 20 local features each."""
    rng = np.random.default_rng(0)
    labels = rng.integers(1, 11, 3000)
    features = rng.standard_normal((11, 40))[labels] + rng.standard_normal((3000, 40))
    features[rng.random(features.shape) < 0.3] = 0.0
    corpus = MulticlassCorpus(labels=labels, features=features, line_numbers=np.arange(1, 3001))
    return partition_federated(corpus, clients=10, n0=ExperimentConfig().n0, seed=0)


def fit_blocks(make_dataset, rounds: int) -> tuple:
    """The comparator's client-major (xg, xl, y) over a dataset's streams."""
    streams = build_streams(make_dataset(), rounds, 0, 1)
    return tuple(a.swapaxes(0, 1).reshape(a.shape[1], rounds, *a.shape[3:]) for a in streams)


def profiled_fit(name: str) -> list:
    """The cProfile entries of one default comparator fit on a case's data."""
    profile = cProfile.Profile()
    profile.runcall(solver.alternating_joint_ls, *fit_blocks(*FITS[name]), DEFAULT_RADIUS)
    return profile.getstats()


# name: (dataset, rounds); the default fits run 126 alternations, 2 and 37
FITS = {"appendixc": (lambda: gen_appendixc(20_000, 1), 20_000),
        "fleet": (lambda: build_dataset(CASES["sgd-fleet"][0], 0), 500),
        "sweep": (sweep_dataset, 2000)}
# name: objective evaluations per fit; evaluating after every alternation
# would take 127 and 3
COMPARATOR_CASES = {"appendixc": 2, "fleet": 2}


@pytest.mark.parametrize("name", COMPARATOR_CASES)
def test_comparator_objective_evaluations_stay_within_bound(name):
    assert sum(entry.callcount for entry in profiled_fit(name)
               if entry.code is solver._objective.__code__) <= COMPARATOR_CASES[name]


# name: Python calls inside fedres per fit, measured in a fresh process (a
# test that caches solver._ridge_diagonal's d first saves one); the -native
# cases run the alternations the screen proves in C and the rest in Python,
# the others every alternation in Python
FIT_CASES = {"appendixc": 771, "appendixc-native": 21, "sweep": 234, "sweep-native": 36}


@pytest.mark.parametrize("name", FIT_CASES)
def test_comparator_calls_stay_within_bound(name, monkeypatch):
    if name.endswith("-native"):
        if native.LOOPS is None:
            pytest.skip(f"the C loops are off: {native.FALLBACK_REASON}")
    else:
        monkeypatch.setattr(native, "LOOPS", None)
    calls = sum(entry.callcount for entry in profiled_fit(name.removesuffix("-native"))
                if not isinstance(entry.code, str) and entry.code.co_filename.startswith(PACKAGE))
    assert calls <= FIT_CASES[name], calls
