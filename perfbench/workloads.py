"""The four benchmark workloads and the checks on their CSV rows.

A workload is an endless, seeded sequence of units. Unit k is one rollout
through a call that ``fedres.cli`` makes - ``run_experiment`` (fleet),
``sweep`` (sweep), ``bandit_rows`` (bandit), or the harness's appendixc
task that ``appendixc_rows`` maps over its pool (threeway) - and its seed
derives from the run seed and k, so a seed always gives the same rows.
A run executes units 0, 1, ... on LANES worker processes for as long as
its time budget allows.

Two lanes, not one: the cores of the 2-vCPU VM this was tuned on slow down
independently of each other by up to 1.8x for tens of seconds at a time,
so a median over units drawn from both cores is steadier than one over a
single core (fleet's run-to-run spread fell from 0.30 to about 0.22). Each lane runs one rollout at a time, as the CLI does
with jobs=1, and the threeway lanes are the 2-worker pool of the
criterion-1 test.
"""

from __future__ import annotations

import itertools
import math
import os
import time
import traceback
from dataclasses import dataclass

import numpy as np

import tracer as tracing
from fedres import harness
from fedres.datagen import MulticlassCorpus, serialize_libsvm
from fedres.harness import ExperimentConfig

# The CSV schema the harness must keep writing.
CSV_HEADER = (
    "rollout,algo,clients,delay_up,delay_down,batch,rounds,axis_value,"
    "train_loss,test_accuracy,avg_regret"
)
SEED_STRIDE = 1000  # unit seeds of run seed s start at s * SEED_STRIDE
LANES = max(1, min(2, os.cpu_count() or 1))  # as in the criterion-1 test


@dataclass
class Unit:
    """What unit k runs: fn(*args) returns its CSV rows."""

    config: str
    samples: int
    fn: object
    args: tuple
    expected: list  # [(leading 8 CSV fields, accuracy is NaN)] per row


@dataclass
class Rollout:
    config: str
    seconds: float
    samples: int
    rows: list
    error: str | None = None
    trace: dict | None = None


def run_unit(workload, k: int) -> Rollout:
    """Run unit k in this process, traced when a tracer is installed."""
    unit = workload.unit(k)
    tr = tracing.active()
    payload = None
    t0 = time.perf_counter()
    try:
        if tr is None:
            rows = unit.fn(*unit.args)
        else:
            tr.begin(k)
            rows = tr.rollout_span(unit.fn, *unit.args)
        error = None
    except Exception:  # a failed rollout is counted, the run goes on
        rows, error = [], traceback.format_exc(limit=4)
    seconds = time.perf_counter() - t0
    if tr is not None:
        payload = tr.collect()
    rows = list(rows)
    return Rollout(unit.config, seconds, unit.samples, rows,
                   error or check_rows(rows, unit.expected), payload)


def check_rows(rows: list, expected: list) -> str | None:
    """None if rows match expected [(leading 8 fields, accuracy is NaN)], else why not."""
    if len(rows) != len(expected):
        return f"{len(rows)} rows, expected {len(expected)}"
    for row, (lead, nan_accuracy) in zip(rows, expected):
        cells = row.split(",")
        if len(cells) != 11:
            return f"row has {len(cells)} cells: {row!r}"
        if cells[:8] != [str(c) for c in lead]:
            return f"row {cells[:8]} does not match config {list(lead)}"
        train_loss, accuracy, regret = (float(c) for c in cells[8:])
        if not (math.isfinite(train_loss) and math.isfinite(regret)):
            return f"non-finite train_loss or avg_regret: {row!r}"
        if nan_accuracy != math.isnan(accuracy):
            return f"test_accuracy {accuracy} where NaN is {'expected' if nan_accuracy else 'wrong'}"
        if not nan_accuracy and not 0.0 <= accuracy <= 1.0:
            return f"test_accuracy {accuracy} outside [0, 1]"
    return None


# ---------------------------------------------------------------------------


def _appendixc_rows(task) -> list:
    return [harness._appendixc_task(task)[1]]


class Threeway:
    """ERM, fictitious play and SGD at step 1.0, plus SGD at 0.05: T rounds, d=2, one client.

    Unit k is rollout k // 4 of group k % 4, the task appendixc_rows hands
    its pool; the companion group is the one appendixc_rows lacks.
    """

    GROUPS = (("fedres-sgd", 1.0), ("fedres-erm", 1.0), ("fictitious", 1.0),
              ("fedres-sgd", 0.05))
    min_units = len(GROUPS)

    def __init__(self, seed: int, size: str, corpus: str | None):
        self.rounds = 20_000 if size == "full" else 400
        self.base_seed = seed * SEED_STRIDE

    def setup(self) -> None:
        pass

    def unit(self, k: int) -> Unit:
        g, r = k % len(self.GROUPS), k // len(self.GROUPS)
        algo, eta = self.GROUPS[g]
        cfg = ExperimentConfig(algo=algo, rounds=self.rounds, clients=1, data="appendixc",
                               base_seed=self.base_seed, eta_global=eta, eta_local=eta,
                               jobs=LANES)
        cfg.validate()
        lead = (r, algo, 1, 0, 0, 1, self.rounds, "")
        return Unit(f"{algo}@{eta}", self.rounds, _appendixc_rows, ((cfg, None, g, r),),
                    [(lead, True)])


class Fleet:
    """fedres run --algo fedres-sgd --data example2 --clients 100 --rounds 500 --alpha 5 --beta 5."""

    min_units = 1

    def __init__(self, seed: int, size: str, corpus: str | None):
        self.clients, self.rounds = (100, 500) if size == "full" else (10, 100)
        self.base_seed = seed * SEED_STRIDE

    def setup(self) -> None:
        pass

    def unit(self, k: int) -> Unit:
        cfg = ExperimentConfig(algo="fedres-sgd", data="example2", clients=self.clients,
                               rounds=self.rounds, alpha=5, beta=5,
                               base_seed=self.base_seed + k)
        lead = (0, "fedres-sgd", self.clients, 5, 5, 1, self.rounds, "")
        return Unit("fedres-sgd", self.clients * self.rounds, harness.run_experiment, (cfg,),
                    [(lead, False)])


def write_corpus(path: str, seed: int, size: str) -> None:
    """Synthetic 10-class, 40-feature LIBSVM corpus with about 3000 rows."""
    rng = np.random.default_rng([seed, 0x5EED])
    n, k, d = (3000, 10, 40) if size == "full" else (800, 10, 40)
    labels = rng.integers(1, k + 1, n)
    centers = rng.standard_normal((k + 1, d))
    features = centers[labels] + rng.standard_normal((n, d))
    features[rng.random((n, d)) < 0.3] = 0.0  # sparse, as LIBSVM corpora are
    corpus = MulticlassCorpus(labels=labels, features=np.round(features, 6),
                              line_numbers=np.arange(1, n + 1))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_libsvm(corpus))


class Sweep:
    """sweep-delay --values 0 20 200 for fedres-sgd, central and independent at b in {1, 10}.

    Unit k is configuration k % 18 of that grid, one sweep call with one
    round trip, on seed k // 18: the rows `fedres sweep-delay` writes.
    """

    ALGOS = ("fedres-sgd", "central", "independent")
    BATCHES = (1, 10)
    ROUND_TRIPS = (0, 20, 200)
    CLIENTS = 10
    GRID = list(itertools.product(ALGOS, BATCHES, ROUND_TRIPS))
    min_units = len(GRID)

    def __init__(self, seed: int, size: str, corpus: str | None):
        if corpus is None:
            raise ValueError("the sweep workload needs a corpus path")
        self.rounds = 2000 if size == "full" else 100
        self.data = f"libsvm:{corpus}"
        self.base_seed = seed * SEED_STRIDE

    def _config(self, algo: str, b: int, base_seed: int) -> ExperimentConfig:
        return ExperimentConfig(algo=algo, data=self.data, clients=self.CLIENTS,
                                rounds=self.rounds, batch_size=b, base_seed=base_seed)

    def setup(self) -> None:
        # The first rollout's dataset build parses the corpus and caches it.
        harness.build_dataset(self._config("fedres-sgd", 1, 0), 0)

    def unit(self, k: int) -> Unit:
        algo, b, tau = self.GRID[k % len(self.GRID)]
        cfg = self._config(algo, b, self.base_seed + k // len(self.GRID))
        lead = (0, algo, self.CLIENTS, tau // 2, tau - tau // 2, b, self.rounds, tau)
        return Unit(f"{algo}/b{b}/rt{tau}", self.CLIENTS * self.rounds, harness.sweep,
                    (cfg, "delay", [tau]), [(lead, False)])


class Bandit:
    """fedres bandit --period 10 --actions 4 --clients 6 --rounds 5000.

    Six clients, not the README's five: ExperimentConfig.validate applies
    the example2 even-client rule although bandit runs ignore `data`, so
    --clients 5 exits with a config error.
    """

    CLIENTS = 6
    min_units = 1

    def __init__(self, seed: int, size: str, corpus: str | None):
        self.rounds = 5000 if size == "full" else 200
        self.base_seed = seed * SEED_STRIDE

    def setup(self) -> None:
        pass

    def unit(self, k: int) -> Unit:
        cfg = ExperimentConfig(clients=self.CLIENTS, rounds=self.rounds, exploration_period=10,
                               k_actions=4, base_seed=self.base_seed + k)
        expected = [((0, algo, self.CLIENTS, 0, 0, 1, self.rounds, 10), True)
                    for algo in ("bandit-epsgreedy", "bandit-uniform")]
        # samples: rounds x clients x two policies
        return Unit("bandit", 2 * self.rounds * self.CLIENTS, harness.bandit_rows, (cfg,),
                    expected)


WORKLOADS = {"threeway": Threeway, "fleet": Fleet, "sweep": Sweep, "bandit": Bandit}
