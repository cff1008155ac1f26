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
projections.
"""

import cProfile
from pathlib import Path

import numpy as np
import pytest

import fedres
from fedres import native
from fedres.harness import ExperimentConfig, build_dataset, dispatch

PACKAGE = str(Path(fedres.__file__).parent)
APPENDIXC = dict(data="appendixc", clients=1, rounds=2000, eta_global=0.05, eta_local=0.05)
INIT = np.array([1.0, 0.0])
# name: (config, init, calls per round)
CASES = {
    "sgd-appendixc": (ExperimentConfig(algo="fedres-sgd", **APPENDIXC), INIT, 2.0345),
    "erm-appendixc": (ExperimentConfig(algo="fedres-erm", **APPENDIXC), INIT, 4.3545),
    "fictitious-appendixc": (ExperimentConfig(algo="fictitious", **APPENDIXC), INIT, 4.274),
    "sgd-appendixc-native": (ExperimentConfig(algo="fedres-sgd", **APPENDIXC), INIT, 0.0515),
    "erm-appendixc-native": (ExperimentConfig(algo="fedres-erm", **APPENDIXC), INIT, 0.048),
    "fictitious-appendixc-native": (ExperimentConfig(algo="fictitious", **APPENDIXC), INIT,
                                    0.048),
    # delayed SGD in blocks of min(beta + 1, alpha + beta) rounds: 6, then 101
    "sgd-fleet": (ExperimentConfig(algo="fedres-sgd", clients=100, rounds=500, alpha=5, beta=5),
                  None, 6.152),
    "sgd-long-delay": (ExperimentConfig(algo="fedres-sgd", clients=10, rounds=2000, alpha=100,
                                        beta=100), None, 2.0355),
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
