"""Contextual bandits on top of the federated regression learners.

Exploration happens once every B rounds: the client picks a uniformly
random action, observes its reward, and feeds (context of that action,
reward) as one squared-loss sample into the wrapped learner - one learner
round per exploration round, so communication delays are counted in
exploration rounds here. All other rounds are pure exploitation: argmax of
the predicted value under the client's current model pair, lowest index on
ties, with no model update.

Context sets and full reward vectors are drawn every round from their own
substreams regardless of the policy, so different policies on the same
seed see identical environments (paired comparisons).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import as_delay_config
from .core import HyperParams, Sample
from .engine import SgdSystem
from .errors import ConfigError, InvariantError
from .results import RoundTrace
from .rng import substream


@dataclass(frozen=True)
class BanditEnv:
    """Realizable linear environment with rewards in [0, 1].

    True mean reward of an action is the clipped joint linear value of its
    (global, local) context under the true parameter pair; realized
    rewards add truncated Gaussian noise and re-clip. Contexts are drawn
    uniformly from [0, context_scale]^d per block.
    """

    k: int
    wg_star: np.ndarray
    wl_stars: tuple[np.ndarray, ...]
    noise_sigma: float = 0.0
    context_scale: float = 1.0

    def __post_init__(self):
        if self.k < 2:
            raise ConfigError(f"need at least 2 actions, got {self.k}")

    @property
    def n_clients(self) -> int:
        return len(self.wl_stars)

    @property
    def d_global(self) -> int:
        return len(self.wg_star)

    @property
    def d_locals(self) -> list[int]:
        return [len(w) for w in self.wl_stars]

    def draw_contexts(self, rng: np.random.Generator, client_id: int):
        dg, dl = self.d_global, len(self.wl_stars[client_id])
        return tuple(
            (
                rng.uniform(0.0, self.context_scale, dg),
                rng.uniform(0.0, self.context_scale, dl),
            )
            for _ in range(self.k)
        )

    def true_mean(self, client_id: int, xg: np.ndarray, xl: np.ndarray) -> float:
        value = float(self.wg_star @ xg + self.wl_stars[client_id] @ xl)
        return float(np.clip(value, 0.0, 1.0))

    def realized_rewards(self, rng: np.random.Generator, client_id: int, contexts) -> np.ndarray:
        means = np.array([self.true_mean(client_id, xg, xl) for xg, xl in contexts])
        if self.noise_sigma > 0:
            means = means + self.noise_sigma * rng.standard_normal(self.k)
        return np.clip(means, 0.0, 1.0)


def make_realizable_env(k: int, clients: int, d_global: int, d_local: int, seed: int,
                        noise_sigma: float = 0.05) -> BanditEnv:
    """Random environment whose linear values stay inside [0, 1] unclipped."""
    rng = substream(seed, "bandit-env")
    scale = 0.45
    wg = rng.uniform(0.1, scale, d_global) / max(d_global, 1)
    wls = tuple(rng.uniform(0.1, scale, d_local) / max(d_local, 1) for _ in range(clients))
    return BanditEnv(k=k, wg_star=wg, wl_stars=wls, noise_sigma=noise_sigma)


def choose_action(wg: np.ndarray, wl: np.ndarray, contexts, t: int, period: int,
                  rng: np.random.Generator) -> int:
    """Uniform draw on exploration rounds (t multiple of the period),
    greedy argmax with lowest-index tie-break otherwise."""
    if period < 1:
        raise ConfigError(f"exploration period must be >= 1, got {period}")
    if len(contexts) == 0:
        raise ConfigError("empty context set")
    if t % period == 0:
        return int(rng.integers(len(contexts)))
    values = [float(wg @ xg + wl @ xl) for xg, xl in contexts]
    return int(np.argmax(values))


def feed_exploration_sample(system: SgdSystem, t: int, period: int, samples) -> None:
    """Run one learner round on exploration data; greedy rounds never update."""
    if t % period != 0:
        raise InvariantError(f"round {t} is a greedy round; model updates are forbidden")
    system.run_round(samples)


@dataclass
class BanditRunResult:
    traces: list[RoundTrace]
    exploration_rounds: int
    final_global: np.ndarray
    final_locals: list[np.ndarray]
    rounds: int
    clients: int


def run_epsilon_greedy(env: BanditEnv, delays, hyper: HyperParams, rounds: int,
                       period: int, seed: int) -> BanditRunResult:
    """Periodic-exploration policy backed by the delayed-gradient learner."""
    return _run_policy(env, delays, hyper, rounds, period, seed, uniform=False)


def run_uniform_policy(env: BanditEnv, rounds: int, seed: int) -> BanditRunResult:
    """Always-uniform baseline on the identical environment draws."""
    return _run_policy(env, 0, HyperParams(), rounds, rounds + 1, seed, uniform=True)


def _run_policy(env, delays, hyper, rounds, period, seed, uniform):
    if rounds < 1:
        raise ConfigError(f"rounds must be >= 1, got {rounds}")
    delays = as_delay_config(delays, env.n_clients)
    system = SgdSystem(env.d_global, env.d_locals, delays, hyper)
    rng_ctx = substream(seed, "bandit-contexts")
    rng_reward = substream(seed, "bandit-rewards")
    rng_policy = substream(seed, "bandit-uniform" if uniform else "bandit-explore")
    traces: list[RoundTrace] = []
    exploration_rounds = 0
    for t in range(1, rounds + 1):
        contexts = [env.draw_contexts(rng_ctx, i) for i in range(env.n_clients)]
        rewards = [env.realized_rewards(rng_reward, i, contexts[i]) for i in range(env.n_clients)]
        explore = uniform or t % period == 0
        exploration_samples = []
        for i in range(env.n_clients):
            wg, wl = system.prediction_pair(i)
            if explore:
                action = int(rng_policy.integers(env.k))
            else:
                action = choose_action(wg, wl, contexts[i], t, period, rng_policy)
            xg, xl = contexts[i][action]
            reward = float(rewards[i][action])
            pred = float(wg @ xg + wl @ xl)
            traces.append(
                RoundTrace(
                    round=t,
                    client_id=i,
                    loss=(reward - pred) ** 2,
                    prediction=pred,
                    label=reward,
                    sample=Sample(xg, xl, reward),
                    action=action,
                    reward=reward,
                    contexts=contexts[i],
                )
            )
            exploration_samples.append(Sample(xg, xl, reward))
        if not uniform and t % period == 0:
            feed_exploration_sample(system, t, period, exploration_samples)
            exploration_rounds += 1
    return BanditRunResult(
        traces=traces,
        exploration_rounds=exploration_rounds,
        final_global=system.wg,
        final_locals=list(system.wl),
        rounds=rounds,
        clients=env.n_clients,
    )


def cb_regret(traces: list[RoundTrace], env: BanditEnv) -> float:
    """Average forgone true mean reward of the logged action choices."""
    if not traces:
        raise ConfigError("empty trace")
    total = 0.0
    for tr in traces:
        if tr.contexts is None or tr.action is None:
            raise ConfigError("trace record lacks bandit fields; trace/env mismatch")
        means = [env.true_mean(tr.client_id, xg, xl) for xg, xl in tr.contexts]
        total += max(means) - means[tr.action]
    return total / len(traces)


def suggested_exploration_period(
    global_comparator_sq_norm: float,
    local_comparator_sq_norm_sum: float,
    clients: int,
    rounds: int,
    sigma2: float,
    gamma: float,
    grad_bound: float,
    radius: float,
    k: int,
) -> float:
    """Three-way-minimum heuristic for the exploration period.

    Returns min( (P T / (K^4 W sigma^2))^(1/5),
                 T^(1/4) / (K^6 gamma D^4 G^2)^(1/8),
                 (T / (K^2 D G))^(1/3) )
    with W the summed comparator energy. Advisory only; the constants are
    rarely known, so runs take an explicit period.
    """
    energy = global_comparator_sq_norm + local_comparator_sq_norm_sum
    vals = [energy, clients, rounds, sigma2, gamma, grad_bound, radius, k]
    if any(not np.isfinite(v) or v <= 0 for v in vals):
        raise ConfigError(f"suggested_exploration_period needs positive finite inputs, got {vals}")
    b1 = (clients * rounds / (k**4 * energy * sigma2)) ** 0.2
    b2 = rounds**0.25 / (k**6 * gamma * radius**4 * grad_bound**2) ** 0.125
    b3 = (rounds / (k**2 * radius * grad_bound)) ** (1.0 / 3.0)
    return float(min(b1, b2, b3))
