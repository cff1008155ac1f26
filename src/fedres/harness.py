"""Experiment harness: seeded rollouts over datasets x algorithms x delays,
aggregated into a stable CSV schema.

Rollout r of a config runs with seed base_seed + r; every stochastic
choice inside the rollout draws from a named substream of that seed, so
algorithms compared on the same rollout index see identical data. Every
rollout - the three-way protocol's too - builds its algorithm's dataset
(view) once and runs the learner through dispatch. Rollouts are
embarrassingly parallel; rows are ordered deterministically before
writing, so parallel and sequential executions produce identical bytes.

The metrics read a run's columns as whole arrays. Regret hands the
comparator client-major stacks (P, N*b, d), each client's records in
order, and prices every record in one pass over the round-major
(N, P, b, d) columns; accuracy scores the clients' test rows a group of
clients at a time, concatenated.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import bandit as bandit_mod
from .baselines import central_view, independent_view
from .core import DEFAULT_RADIUS, HyperParams, default_eta
from .datagen import gen_appendixc, gen_example2, load_libsvm, partition_federated
from .engine import run_fedres_sgd
from .erm import BLOCK, run_fedres_erm, run_fictitious_play
from .errors import ConfigError
from .results import RunResult
from .solver import alternating_joint_ls

CSV_HEADER = "rollout,algo,clients,delay_up,delay_down,batch,rounds,axis_value,train_loss,test_accuracy,avg_regret"

ALGOS = (
    "independent",
    "central",
    "fedres-sgd",
    "fedres-erm",
    "fictitious",
    "fedres-sgd-misaligned",
    "fedres-sgd-asymmetric",
)
SWEEP_AXES = ("clients", "delay")
# Test rows scored per pass: one pass over all of a 100-client fleet's 20 000
# rows page-faults its fresh arrays and costs more than a loop over clients.
ACCURACY_ROWS = 4096
MAX_DATA_ENTRIES = 2**31  # float64 entries (16 GiB) one rollout's data and Grams may take
MAX_ROLLOUTS = 2**20  # every rollout's task and CSV row are held in memory at once
OUTPUT_DIR_ENV = "FEDRES_OUTPUT_DIR"


@dataclass(frozen=True)
class ExperimentConfig:
    algo: str = "fedres-sgd"
    rounds: int = 500
    clients: int = 2
    alpha: int = 0
    beta: int = 0
    batch_size: int = 1
    eta_global: float | None = None
    eta_local: float | None = None
    radius: float = DEFAULT_RADIUS
    rollouts: int = 1
    base_seed: int = 0
    data: str = "example2"  # example2 | appendixc | libsvm:<path>
    dim: int = 4
    v_norm: float = 1.0
    noise: float = 0.0
    n0: int = 30
    holdout: float = 0.25
    test_rounds: int = 200
    jobs: int = 1
    exploration_period: int = 10
    k_actions: int = 4

    def validate(self, *, uses_data: bool = True) -> None:
        """ConfigError on an inconsistent config; uses_data=False skips the
        rules of the `data` source (bandit runs draw their own contexts)."""
        if self.algo not in ALGOS:
            raise ConfigError(f"unknown algo {self.algo!r}; expected one of {ALGOS}")
        if self.rounds < 1 or self.clients < 1 or self.rollouts < 1:
            raise ConfigError("rounds, clients and rollouts must be positive")
        if self.rollouts > MAX_ROLLOUTS:
            raise ConfigError(f"at most {MAX_ROLLOUTS:,} rollouts, got {self.rollouts:,}")
        if self.dim < 1 or self.test_rounds < 0:
            raise ConfigError(f"dim must be >= 1 and test rounds >= 0, got {self.dim}, "
                              f"{self.test_rounds}")
        if not np.isfinite(self.v_norm):
            raise ConfigError(f"v_norm must be finite, got {self.v_norm}")
        if self.alpha < 0 or self.beta < 0:
            raise ConfigError("delays must be nonnegative")
        if self.batch_size < 1 or self.rounds % self.batch_size:
            raise ConfigError(
                f"batch size {self.batch_size} must be >= 1 and divide rounds {self.rounds}"
            )
        if self.algo in ("fedres-erm", "fictitious") and self.batch_size != 1:
            raise ConfigError("exact-solve learners do not support batching")
        if self.jobs < 1:
            raise ConfigError("jobs must be >= 1")
        if not 0 <= self.noise < np.inf:
            raise ConfigError(f"noise must be finite and nonnegative, got {self.noise}")
        if self.exploration_period < 1:
            raise ConfigError(f"exploration period must be >= 1, got {self.exploration_period}")
        if self.k_actions < 2:
            raise ConfigError(f"need at least 2 actions, got {self.k_actions}")
        if uses_data and self.data == "appendixc" and self.clients != 1:
            raise ConfigError("the appendixc stream is single-client")
        if uses_data and self.data == "example2" and self.clients % 2:
            raise ConfigError("example2 needs an even number of clients")
        # streams: rows x clients x (dg + dl + 1), 1 wide for an unread corpus; or the episode
        rows = self.rounds + self.test_rounds * (uses_data and self.data == "example2")
        width = ({"example2": 2 * self.dim + 1, "appendixc": 5}.get(self.data, 1) if uses_data
                 else 8 * self.k_actions)
        size = self.clients * rows * width
        if uses_data:  # clients x (dg + dl)^2 bounds the regret comparator's Gram blocks,
            # and min(BLOCK, rounds) + 1 of them an exact learner's prefix-sum tables
            tables = (min(BLOCK, self.rounds) + 1) * (self.algo in ("fedres-erm", "fictitious"))
            size += self.clients * (width - 1) ** 2 * (1 + tables)
        if size > MAX_DATA_ENTRIES:
            raise ConfigError(f"the data and its Gram blocks would take {size:,} float64 "
                              "entries; at most 2**31 fit")

    def hyper(self) -> HyperParams:
        eta = default_eta(self.rounds)
        return HyperParams(
            radius=self.radius,
            eta_global=self.eta_global if self.eta_global is not None else eta,
            eta_local=self.eta_local if self.eta_local is not None else eta,
        )


@lru_cache(maxsize=4)
def _load_corpus(path: str):
    return load_libsvm(path)


def build_dataset(cfg: ExperimentConfig, seed: int):
    """The data source's dataset, as cfg.algo sees it: Independent and Central
    get their routed view (see baselines), every other algorithm the dataset."""
    if cfg.data == "example2":
        v = np.full(cfg.dim, cfg.v_norm / np.sqrt(cfg.dim))
        dataset = gen_example2(
            cfg.clients, cfg.dim, v, cfg.noise, cfg.rounds, seed, test_rounds=cfg.test_rounds
        )
    elif cfg.data == "appendixc":
        dataset = gen_appendixc(cfg.rounds, seed)
    elif cfg.data.startswith("libsvm:"):
        corpus = _load_corpus(cfg.data.split(":", 1)[1])
        dataset = partition_federated(corpus, cfg.clients, cfg.n0, seed, cfg.holdout)
    else:
        raise ConfigError(f"unknown data source {cfg.data!r}")
    if cfg.algo == "independent":
        return independent_view(dataset)
    return central_view(dataset) if cfg.algo == "central" else dataset


def dispatch(cfg: ExperimentConfig, dataset, seed: int, init=None) -> RunResult:
    """Run cfg.algo on the dataset build_dataset gives it. init, if given,
    starts the global model and every local model. Independent runs with
    zero delays: it has nothing to communicate."""
    delays = 0 if cfg.algo == "independent" else (cfg.alpha, cfg.beta)
    inits = {} if init is None else dict(init_global=init,
                                         init_locals=[init] * dataset.n_clients)
    args = (dataset, delays, cfg.hyper(), cfg.rounds, seed)
    # the learners are looked up as module globals at call time, so a
    # caller that rebinds them (a tracer) reaches every algorithm
    if cfg.algo == "fedres-erm":
        return run_fedres_erm(*args, **inits)
    if cfg.algo == "fictitious":
        return run_fictitious_play(*args, **inits)
    variant = {"fedres-sgd-misaligned": "misaligned",
               "fedres-sgd-asymmetric": "asymmetric"}.get(cfg.algo, "aligned")
    return run_fedres_sgd(*args, variant=variant, batch_size=cfg.batch_size, **inits)


# ---------------------------------------------------------------------------
# Metrics


def compute_regret(result: RunResult, comparator=None, *,
                   radius: float = DEFAULT_RADIUS) -> float:
    """Average played loss minus the best fixed joint model's loss.

    The run is read as columns. The default comparator is the
    ball-constrained joint fit of the full offline data (alternating exact
    solves to the solver's default objective tolerance), handed each client's records
    in order as client-major stacks (P, N*b, ...). A comparator
    (wg, wls) gives one local model per client. Every record is priced in
    one pass over the round-major (N, P, b, ...) columns; batched records
    compare batch mean against batch mean. The sum runs in record order.
    """
    if not result.loss.size:
        raise ConfigError("regret of an empty run")
    if comparator is None:
        records = result.rounds * result.batch_size
        # explicit sizes: a view's block may have d = 0
        stacks = (a.swapaxes(0, 1).reshape(result.clients, records, *a.shape[3:])
                  for a in (result.x_global, result.x_local, result.label))
        wg, wls, _ = alternating_joint_ls(*stacks, radius)
    else:
        wg, wls = comparator
        if len(wls) != result.clients:
            raise ConfigError(f"comparator has {len(wls)} locals for {result.clients} clients")
        wls = np.asarray(wls, dtype=float)
    pred = np.vecdot(result.x_global, wg)
    pred += np.vecdot(result.x_local, wls[:, None, :])
    comp = np.float_power(np.subtract(result.label, pred, out=pred), 2.0, out=pred).mean(axis=-1)
    loss = result.loss.ravel()
    # equals a `total += gap` loop from 0.0 in record order, bit for bit
    total = 0.0 + np.add.accumulate(loss - comp.ravel())[-1]
    return float(total) / len(loss)


def evaluate_accuracy(dataset, result: RunResult) -> float:
    """Sign-agreement accuracy of the final model pairs on the test sets.

    Clients with test rows are scored in consecutive groups of about
    ACCURACY_ROWS rows: a group's test blocks are concatenated once and each
    client's local model is repeated over its rows. NaN when no client has
    a test row.
    """
    blocks = dataset.test_sets()
    sizes = np.array([len(y) for _, _, y in blocks])
    n = int(sizes.sum())
    if not n:
        return float("nan")
    wls = np.asarray(result.final_locals, dtype=float)
    correct = 0
    scored = np.flatnonzero(sizes)
    for group in np.array_split(scored, min(len(scored), -(-n // ACCURACY_ROWS))):
        xg, xl, y = (np.concatenate([blocks[i][k] for i in group]) for k in range(3))
        wl = np.repeat(wls[group], sizes[group], axis=0)
        pred = np.vecdot(xg, result.final_global) + np.vecdot(xl, wl)
        correct += int(np.count_nonzero((pred >= 0) == (y > 0)))
    return correct / n


# ---------------------------------------------------------------------------
# Rollouts, sweeps, CSV


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _row(rollout: int, cfg: ExperimentConfig, axis_value, train_loss, accuracy, regret) -> str:
    cells = [
        rollout,
        cfg.algo,
        cfg.clients,
        cfg.alpha,
        cfg.beta,
        cfg.batch_size,
        cfg.rounds,
        "" if axis_value is None else axis_value,
        float(train_loss),
        float(accuracy),
        float(regret),
    ]
    return ",".join(_fmt(c) for c in cells)


def _rollout_row(args, init=None) -> tuple[tuple, str]:
    cfg, axis_value, order_key, rollout = args
    seed = cfg.base_seed + rollout
    dataset = build_dataset(cfg, seed)
    result = dispatch(cfg, dataset, seed, init)
    train_loss = result.mean_loss()
    accuracy = evaluate_accuracy(dataset, result)
    regret = compute_regret(result, radius=cfg.radius)
    return (order_key, rollout), _row(rollout, cfg, axis_value, train_loss, accuracy, regret)


def _run_tasks(tasks: list, jobs: int, task=_rollout_row) -> list:
    """task(t) -> (order key, result) for every t; the results in key order."""
    if jobs > 1 and len(tasks) > 1:
        # imported here: the import costs every start-up, and only a pool needs it
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            keyed = list(pool.map(task, tasks))
    else:
        keyed = [task(t) for t in tasks]
    keyed.sort(key=lambda kr: kr[0])
    return [row for _, row in keyed]


def run_experiment(cfg: ExperimentConfig) -> list[str]:
    """All rollouts of one config; returns CSV data rows (no header)."""
    cfg.validate()
    tasks = [(cfg, None, 0, r) for r in range(cfg.rollouts)]
    return _run_tasks(tasks, cfg.jobs)


def sweep(cfg: ExperimentConfig, axis: str, values) -> list[str]:
    """Rollouts across an axis: clients or delay (round trip)."""
    if axis not in SWEEP_AXES:
        raise ConfigError(f"unknown sweep axis {axis!r}; expected one of {SWEEP_AXES}")
    tasks = []
    for k, value in enumerate(values):
        if axis == "clients":
            derived = replace(cfg, clients=int(value))
        else:
            tau = int(value)
            derived = replace(cfg, alpha=tau // 2, beta=tau - tau // 2)
        derived.validate()
        tasks.extend((derived, value, k, r) for r in range(cfg.rollouts))
    return _run_tasks(tasks, cfg.jobs)


def appendixc_rows(rounds: int = 20000, rollouts: int = 50, eta: float = 1.0,
                   base_seed: int = 0, jobs: int = 1) -> list[str]:
    """Three-way comparison on the complementary-views stream.

    Protocol: single client, zero delay, both models initialized to
    [1, 0], the given step size for the gradient learner, exact solves for
    the other two. Note that plain squared-loss gradient steps on this
    stream are only stable for steps below roughly 0.1; the default 1.0
    follows the stated protocol and visibly diverges (see README).
    """
    base = ExperimentConfig(
        rounds=rounds, clients=1, rollouts=rollouts, base_seed=base_seed,
        data="appendixc", eta_global=eta, eta_local=eta, jobs=jobs,
    )
    tasks = []
    for k, algo in enumerate(("fedres-sgd", "fedres-erm", "fictitious")):
        cfg = replace(base, algo=algo)
        cfg.validate()
        tasks.extend((cfg, None, k, r) for r in range(rollouts))
    return _run_tasks(tasks, jobs, _appendixc_task)


def _appendixc_task(args) -> tuple[tuple, str]:
    """One rollout of the three-way protocol: both models start at [1, 0]."""
    return _rollout_row(args, init=np.array([1.0, 0.0]))


def _bandit_task(args) -> tuple[int, list[str]]:
    cfg, rollout = args
    seed = cfg.base_seed + rollout
    env = bandit_mod.make_realizable_env(cfg.k_actions, cfg.clients, 3, 3, seed,
                                         noise_sigma=cfg.noise)
    episode = bandit_mod.draw_episode(env, cfg.rounds, seed)  # both policies share it
    greedy = bandit_mod.run_epsilon_greedy(episode, (cfg.alpha, cfg.beta), cfg.hyper(),
                                           cfg.exploration_period)
    uniform = bandit_mod.run_uniform_policy(episode)
    return rollout, [_row(rollout, replace(cfg, algo=algo), cfg.exploration_period,
                          res.mean_loss(), float("nan"), bandit_mod.cb_regret(res, env))
                     for algo, res in (("bandit-epsgreedy", greedy), ("bandit-uniform", uniform))]


def bandit_rows(cfg: ExperimentConfig) -> list[str]:
    """Paired periodic-exploration vs uniform-random rows on one env per
    rollout, ordered by rollout and then policy."""
    cfg.validate(uses_data=False)
    if cfg.batch_size != 1:
        raise ConfigError("bandit policies do not support batching")
    tasks = [(cfg, r) for r in range(cfg.rollouts)]
    return [row for rows in _run_tasks(tasks, cfg.jobs, _bandit_task) for row in rows]


def write_csv(rows: list[str], path: str | Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(CSV_HEADER + "\n" + "\n".join(rows) + "\n", encoding="utf-8")


def default_output_dir() -> Path:
    return Path(os.environ.get(OUTPUT_DIR_ENV, "."))
