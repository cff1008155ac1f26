"""Deterministic federated residual learning: a shared global linear model
plus per-client local models trained jointly under explicit uplink and
downlink communication delays, with exact-solve and delayed-gradient
learners, local/central baselines as views over the engine, mini-batching,
and an epsilon-greedy contextual-bandit layer."""

from .bandit import (
    BanditEnv,
    BanditEpisode,
    cb_regret,
    choose_action,
    draw_episode,
    make_realizable_env,
    run_epsilon_greedy,
    run_uniform_policy,
    suggested_exploration_period,
)
from .baselines import central_view, independent_view
from .channel import DelayConfig, DelayedChannel
from .core import HyperParams, default_eta, project_ball, suggested_step_size
from .datagen import (
    FederatedDataset,
    MulticlassCorpus,
    gen_appendixc,
    gen_example2,
    load_libsvm,
    parse_libsvm,
    partition_federated,
    serialize_libsvm,
    write_partition_manifest,
)
from .engine import SgdSystem, run_fedres_sgd
from .erm import run_fedres_erm, run_fictitious_play
from .errors import ConfigError, InvariantError
from .harness import ExperimentConfig, compute_regret, evaluate_accuracy, run_experiment, sweep
from .results import RunResult
from .solver import alternating_joint_ls, solve_gram

__all__ = [
    "BanditEnv", "BanditEpisode", "cb_regret", "choose_action", "draw_episode",
    "make_realizable_env", "run_epsilon_greedy", "run_uniform_policy",
    "suggested_exploration_period",
    "central_view", "independent_view", "DelayConfig", "DelayedChannel",
    "HyperParams", "default_eta", "project_ball", "suggested_step_size",
    "FederatedDataset", "MulticlassCorpus", "gen_appendixc", "gen_example2", "load_libsvm",
    "parse_libsvm", "partition_federated", "serialize_libsvm", "write_partition_manifest",
    "SgdSystem", "run_fedres_sgd", "run_fedres_erm", "run_fictitious_play",
    "ConfigError", "InvariantError", "ExperimentConfig", "compute_regret",
    "evaluate_accuracy", "run_experiment", "sweep",
    "RunResult",
    "alternating_joint_ls", "solve_gram",
]
