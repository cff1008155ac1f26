"""Deterministic federated residual learning: a shared global linear model
plus per-client local models trained jointly under explicit uplink and
downlink communication delays, with exact-solve and delayed-gradient
learners, local/central baselines, mini-batching, and an
epsilon-greedy contextual-bandit layer."""

from .bandit import (
    BanditEnv,
    cb_regret,
    choose_action,
    make_realizable_env,
    run_epsilon_greedy,
    run_uniform_policy,
    suggested_exploration_period,
)
from .baselines import run_central, run_independent
from .channel import DelayConfig, DelayedChannel
from .core import (
    HyperParams,
    ResidualMessage,
    Sample,
    default_eta,
    grad_global,
    grad_global_from_message,
    grad_local,
    loss,
    predict_joint,
    project_ball,
    suggested_step_size,
)
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
from .minibatch import aggregate_grads, aggregate_loss, run_batched
from .results import RoundTrace, RunResult
from .solver import ConstrainedLsProblem, alternating_joint_ls, solve_constrained_ls, solve_gram

__all__ = [name for name in dir() if not name.startswith("_")]
