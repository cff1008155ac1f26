"""Experiment harness: seeded rollouts over datasets x algorithms x delays,
aggregated into a stable CSV schema.

Rollout r of a config runs with seed base_seed + r; every stochastic
choice inside the rollout draws from a named substream of that seed, so
algorithms compared on the same rollout index see identical data. Rollouts
are embarrassingly parallel; rows are ordered deterministically before
writing, so parallel and sequential executions produce identical bytes.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import bandit as bandit_mod
from .baselines import central_view, independent_view, run_central, run_independent
from .core import DEFAULT_RADIUS, HyperParams, default_eta
from .datagen import (
    FederatedDataset,
    gen_appendixc,
    gen_example2,
    load_libsvm,
    partition_federated,
    rows_block,
)
from .engine import run_fedres_sgd
from .erm import run_fedres_erm, run_fictitious_play
from .errors import ConfigError
from .results import RunResult, TraceView
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
SWEEP_AXES = ("clients", "delay", "rounds", "batch")
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
        if not self.noise >= 0:
            raise ConfigError(f"noise must be nonnegative, got {self.noise}")
        if self.exploration_period < 1:
            raise ConfigError(f"exploration period must be >= 1, got {self.exploration_period}")
        if self.k_actions < 2:
            raise ConfigError(f"need at least 2 actions, got {self.k_actions}")
        if uses_data and self.data == "appendixc" and self.clients != 1:
            raise ConfigError("the appendixc stream is single-client")
        if uses_data and self.data == "example2" and self.clients % 2:
            raise ConfigError("example2 needs an even number of clients")

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


def build_dataset(cfg: ExperimentConfig, seed: int) -> FederatedDataset:
    if cfg.data == "example2":
        v = np.full(cfg.dim, cfg.v_norm / np.sqrt(cfg.dim))
        return gen_example2(
            cfg.clients, cfg.dim, v, cfg.noise, cfg.rounds, seed, test_rounds=cfg.test_rounds
        )
    if cfg.data == "appendixc":
        return gen_appendixc(cfg.rounds, seed)
    if cfg.data.startswith("libsvm:"):
        corpus = _load_corpus(cfg.data.split(":", 1)[1])
        return partition_federated(corpus, cfg.clients, cfg.n0, seed, cfg.holdout)
    raise ConfigError(f"unknown data source {cfg.data!r}")


def dispatch(cfg: ExperimentConfig, dataset: FederatedDataset, seed: int):
    """Run cfg.algo on the dataset; returns (result, dataset view used)."""
    hyper = cfg.hyper()
    delays = (cfg.alpha, cfg.beta)
    rounds = cfg.rounds
    if cfg.algo == "independent":
        return run_independent(dataset, hyper, rounds, seed, batch_size=cfg.batch_size), (
            independent_view(dataset)
        )
    if cfg.algo == "central":
        return run_central(dataset, delays, hyper, rounds, seed, batch_size=cfg.batch_size), (
            central_view(dataset)
        )
    if cfg.algo == "fedres-erm":
        return run_fedres_erm(dataset, delays, hyper, rounds, seed), dataset
    if cfg.algo == "fictitious":
        return run_fictitious_play(dataset, delays, hyper, rounds, seed), dataset
    variant = {
        "fedres-sgd": "aligned",
        "fedres-sgd-misaligned": "misaligned",
        "fedres-sgd-asymmetric": "asymmetric",
    }[cfg.algo]
    result = run_fedres_sgd(
        dataset, delays, hyper, rounds, seed, variant=variant, batch_size=cfg.batch_size
    )
    return result, dataset


# ---------------------------------------------------------------------------
# Metrics


def _merge_leading(a: np.ndarray) -> np.ndarray:
    """a with its first two axes merged, C-contiguous (explicit sizes: d may be 0)."""
    return np.ascontiguousarray(a.reshape(a.shape[0] * a.shape[1], *a.shape[2:]))


def _record_groups(traces) -> tuple:
    """(loss (K,), groups) of a run's K records in trace order; one group per
    client, ascending: (record positions, x_global (n, b, dg), x_local
    (n, b, dl), y (n, b)) with the client's records in order."""
    if not isinstance(traces, TraceView):
        raise ConfigError("regret reads a run's columns: pass result.traces")
    r = traces.result
    return r.loss.ravel(), [
        (slice(i, None, r.clients), r.x_global[:, i], r.x_local[:, i], r.label[:, i])
        for i in range(r.clients)
    ]


def compute_regret(traces, comparator=None, *,
                   radius: float = DEFAULT_RADIUS, tol: float = 1e-8) -> float:
    """Average played loss minus the best fixed joint model's loss.

    traces is a run's trace view, read as columns. The default comparator
    is the ball-constrained joint fit of the full offline data (alternating
    exact solves to the given objective tolerance). Batched records compare
    batch mean against batch mean. The sum runs in record order.
    """
    loss, groups = _record_groups(traces)
    if comparator is None:
        data = ([_merge_leading(g[k]) for g in groups] for k in (1, 2, 3))
        wg, wls, _ = alternating_joint_ls(*data, radius, tol)
    else:
        wg, wls = comparator
        if len(wls) != len(groups):
            raise ConfigError(f"comparator has {len(wls)} locals for {len(groups)} clients")
    comp = np.empty_like(loss)
    for (at, xg, xl, y), wl in zip(groups, wls):
        pred = np.vecdot(xg, wg) + np.vecdot(xl, wl)
        comp[at] = np.float_power(y - pred, 2.0).mean(axis=-1)
    # equals a `total += gap` loop from 0.0 in record order, bit for bit
    total = 0.0 + np.add.accumulate(loss - comp)[-1]
    return float(total) / len(loss)


def evaluate_accuracy(dataset, result: RunResult) -> float:
    """Sign-agreement accuracy of the final model pairs on the test sets."""
    correct = 0
    n = 0
    for tests, wl in zip(dataset.test_sets(), result.final_locals):
        xg, xl, y = rows_block(tests)
        if not len(y):
            continue
        pred = np.vecdot(xg, result.final_global) + np.vecdot(xl, wl)
        correct += int(np.count_nonzero((pred >= 0) == (y > 0)))
        n += len(y)
    return correct / n if n else float("nan")


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


def _rollout_row(args) -> tuple[tuple, str]:
    cfg, axis_value, order_key, rollout = args
    seed = cfg.base_seed + rollout
    dataset = build_dataset(cfg, seed)
    result, view = dispatch(cfg, dataset, seed)
    train_loss = result.mean_loss()
    accuracy = evaluate_accuracy(view, result)
    regret = compute_regret(result.traces, radius=cfg.radius)
    return (order_key, rollout), _row(rollout, cfg, axis_value, train_loss, accuracy, regret)


def _run_tasks(tasks: list, jobs: int, task=_rollout_row) -> list[str]:
    if jobs > 1 and len(tasks) > 1:
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
    """Rollouts across an axis: clients, delay (round trip), rounds, batch."""
    if axis not in SWEEP_AXES:
        raise ConfigError(f"unknown sweep axis {axis!r}; expected one of {SWEEP_AXES}")
    tasks = []
    for k, value in enumerate(values):
        if axis == "clients":
            derived = replace(cfg, clients=int(value))
        elif axis == "delay":
            tau = int(value)
            derived = replace(cfg, alpha=tau // 2, beta=tau - tau // 2)
        elif axis == "rounds":
            derived = replace(cfg, rounds=int(value))
        else:
            derived = replace(cfg, batch_size=int(value))
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


def run_appendixc(cfg: ExperimentConfig, seed: int) -> RunResult:
    """One rollout of the three-way protocol: both models start at [1, 0]."""
    init = np.array([1.0, 0.0])
    kwargs = dict(init_global=init, init_locals=[init])
    dataset = build_dataset(cfg, seed)
    if cfg.algo == "fedres-sgd":
        return run_fedres_sgd(dataset, 0, cfg.hyper(), cfg.rounds, seed, **kwargs)
    if cfg.algo == "fedres-erm":
        return run_fedres_erm(dataset, 0, cfg.hyper(), cfg.rounds, seed, **kwargs)
    if cfg.algo == "fictitious":
        return run_fictitious_play(dataset, 0, cfg.hyper(), cfg.rounds, seed, **kwargs)
    raise ConfigError(f"algo {cfg.algo!r} is not part of the three-way protocol")


def _appendixc_task(args) -> tuple[tuple, str]:
    cfg, _axis, order_key, rollout = args
    seed = cfg.base_seed + rollout
    result = run_appendixc(cfg, seed)
    regret = compute_regret(result.traces, radius=cfg.radius)
    return (order_key, rollout), _row(
        rollout, cfg, None, result.mean_loss(), float("nan"), regret
    )


def bandit_rows(cfg: ExperimentConfig) -> list[str]:
    """Paired periodic-exploration vs uniform-random rows on one env."""
    cfg.validate(uses_data=False)
    rows = []
    for r in range(cfg.rollouts):
        seed = cfg.base_seed + r
        env = bandit_mod.make_realizable_env(
            cfg.k_actions, cfg.clients, 3, 3, seed, noise_sigma=cfg.noise
        )
        greedy = bandit_mod.run_epsilon_greedy(
            env, (cfg.alpha, cfg.beta), cfg.hyper(), cfg.rounds, cfg.exploration_period, seed
        )
        uniform = bandit_mod.run_uniform_policy(env, cfg.rounds, seed)
        for algo, res in (("bandit-epsgreedy", greedy), ("bandit-uniform", uniform)):
            rows.append(_row(r, replace(cfg, algo=algo), cfg.exploration_period, res.mean_loss(),
                             float("nan"), bandit_mod.cb_regret(res.traces, env)))
    return rows


def write_csv(rows: list[str], path: str | Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(CSV_HEADER + "\n" + "\n".join(rows) + "\n", encoding="utf-8")


def default_output_dir() -> Path:
    return Path(os.environ.get(OUTPUT_DIR_ENV, "."))
