"""Contextual bandits on top of the federated regression learners.

Exploration happens once every B rounds: the client picks a uniformly
random action, observes its reward, and feeds (context of that action,
reward) as one squared-loss sample into the wrapped learner - one learner
round per exploration round, so communication delays are counted in
exploration rounds here. All other rounds are pure exploitation: argmax of
the predicted value under the client's current model pair, lowest index on
ties, with no model update (epoch-greedy, Langford & Zhang 2007).

Context sets and full reward vectors come from their own substreams
regardless of the policy, so different policies on the same seed see
identical environments (paired comparisons). draw_episode draws them once
for the whole horizon - contexts (T, P, k, d), true means and realized
rewards (T, P, k) - and every policy on that seed runs on the one draw.

Greedy choices never reach the learner, so a policy runs in three array
passes. It draws every exploration pick first, gathers the explored
samples into an (E, P, 1, d) stream and steps the learner over it,
recording the model pair in force in each exploration block (rounds
s+1 .. s+B act on the pair after s / B steps). One pass then prices every
action of every round under its block's pair and takes the greedy
choices, and the exploration rounds are overwritten with their picks.
The prediction column is the chosen action's value from that pass;
np.vecdot gives every element the bits it has in a block-by-block loop.
The uniform policy draws all its actions and keeps zero models, so it
runs no learner, skips that pass and predicts zeros.

A run returns a BanditResult: the RunResult columns, with the realized
reward of the chosen action as label and its contexts as x_global /
x_local, plus the actions and the episode it ran on (shared, not copied),
whose true means cb_regret prices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import as_delay_config
from .core import HyperParams
from .engine import SgdSystem
from .errors import ConfigError
from .results import RunResult
from .rng import substream


@dataclass(frozen=True)
class BanditEnv:
    """Realizable linear environment with rewards in [0, 1].

    True mean reward of an action is the clipped joint linear value of its
    (global, local) context under the true parameter pair; realized
    rewards add truncated Gaussian noise and re-clip. Contexts are drawn
    uniformly from [0, 1)^d per block.
    """

    k: int
    wg_star: np.ndarray
    wl_stars: tuple[np.ndarray, ...]
    noise_sigma: float = 0.0

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

    def context_blocks(self, rng: np.random.Generator, rounds: int):
        """Every round's context sets, x_global (T, P, k, dg) and x_local
        (T, P, k, dl), drawn by round, client, action, then global block."""
        dg = self.d_global
        shape = (rounds, self.n_clients, self.k, dg + self.d_locals[0])
        block = rng.random(shape)
        return block[..., :dg], block[..., dg:]

    def mean_rewards(self, xg: np.ndarray, xl: np.ndarray) -> np.ndarray:
        """True mean rewards (T, P, k) of the context sets (T, P, k, d)."""
        wl = np.array(self.wl_stars)[:, None, :]
        return np.clip(np.vecdot(xg, self.wg_star) + np.vecdot(xl, wl), 0.0, 1.0)

    def noisy_rewards(self, rng: np.random.Generator, means: np.ndarray) -> np.ndarray:
        """Realized rewards of every action: the means plus noise, re-clipped."""
        if self.noise_sigma > 0:
            means = means + self.noise_sigma * rng.standard_normal(means.shape)
        return np.clip(means, 0.0, 1.0)


def make_realizable_env(k: int, clients: int, d_global: int, d_local: int, seed: int,
                        noise_sigma: float = 0.05) -> BanditEnv:
    """Random environment whose linear values stay inside [0, 1] unclipped."""
    rng = substream(seed, "bandit-env")
    scale = 0.45
    wg = rng.uniform(0.1, scale, d_global) / max(d_global, 1)
    wls = tuple(rng.uniform(0.1, scale, d_local) / max(d_local, 1) for _ in range(clients))
    return BanditEnv(k=k, wg_star=wg, wl_stars=wls, noise_sigma=noise_sigma)


def choose_action(wg: np.ndarray, wl: np.ndarray, xg: np.ndarray, xl: np.ndarray):
    """The greedy rule on stacked context sets xg (..., k, dg), xl (..., k, dl):
    returns the argmax action (...), lowest index on ties, and every action's
    predicted value (..., k) under the pair (wg, wl), whose rows broadcast
    against the leading axes."""
    if xg.shape[-2] == 0:
        raise ConfigError("empty context set")
    values = np.vecdot(xg, wg[..., None, :]) + np.vecdot(xl, wl[..., None, :])
    return np.argmax(values, axis=-1), values


@dataclass(frozen=True)
class BanditEpisode:
    """One seed's environment draw, shared by every policy run on it: the
    context sets context_global (T, P, k, dg) and context_local (T, P, k, dl),
    their true mean rewards means (T, P, k), the realized rewards reward
    (T, P, k), and the seed whose substreams draw the policies' actions."""

    seed: int
    context_global: np.ndarray
    context_local: np.ndarray
    means: np.ndarray
    reward: np.ndarray


def draw_episode(env: BanditEnv, rounds: int, seed: int) -> BanditEpisode:
    """The contexts, true means and realized rewards of the horizon, drawn
    once from the seed's substreams."""
    if rounds < 1:
        raise ConfigError(f"rounds must be >= 1, got {rounds}")
    xg, xl = env.context_blocks(substream(seed, "bandit-contexts"), rounds)
    means = env.mean_rewards(xg, xl)
    reward = env.noisy_rewards(substream(seed, "bandit-rewards"), means)
    return BanditEpisode(seed, xg, xl, means, reward)


@dataclass
class BanditResult(RunResult):
    """A bandit run's columns (see the module doc), its actions (T, P), the
    episode it ran on, and how many rounds explored."""

    action: np.ndarray
    episode: BanditEpisode
    exploration_rounds: int


def run_epsilon_greedy(episode: BanditEpisode, delays, hyper: HyperParams,
                       period: int) -> BanditResult:
    """Periodic-exploration policy backed by the delayed-gradient learner."""
    if period < 1:
        raise ConfigError(f"exploration period must be >= 1, got {period}")
    xg, xl, reward = episode.context_global, episode.context_local, episode.reward
    rounds, clients, k, dg = xg.shape
    dl = xl.shape[-1]
    explored = np.arange(period - 1, rounds, period)  # each full block's last round
    # the picks one call per block would draw: integers() takes 32-bit draws, and
    # PCG64 keeps the spare half of a 64-bit output between calls
    picks = substream(episode.seed, "bandit-explore").integers(k, size=(len(explored), clients))
    at = explored[:, None], np.arange(clients), picks
    system = SgdSystem((xg[at][:, :, None], xl[at][:, :, None], reward[at][:, :, None]),
                       as_delay_config(delays, clients), hyper)
    blocks = -(-rounds // period)
    pair_g, pair_l = np.empty((blocks, clients, dg)), np.empty((blocks, clients, dl))
    with np.errstate(over="ignore", invalid="ignore"):  # as in run(): a blow-up is InvariantError
        for j in range(blocks):  # block j acts on the pair after j steps
            pair_g[j], pair_l[j] = system.fetched, system.wl  # fetched is (dg,) under uniform beta
            if j < len(explored):
                system.step()
    in_force = np.arange(rounds) // period
    action, values = choose_action(pair_g[in_force], pair_l[in_force], xg, xl)
    action[explored] = picks
    prediction = np.take_along_axis(values, action[..., None], -1)
    return _result(episode, action, prediction, (system.wg, system.wl),
                   system.channel.fetch_counts, len(explored))


def run_uniform_policy(episode: BanditEpisode) -> BanditResult:
    """Always-uniform baseline on the episode's draws; its models stay zero."""
    rounds, clients, k, dg = episode.context_global.shape
    action = substream(episode.seed, "bandit-uniform").integers(k, size=(rounds, clients))
    zero = np.zeros(dg), np.zeros((clients, episode.context_local.shape[-1]))
    return _result(episode, action, np.zeros((rounds, clients, 1)), zero, [0] * clients, 0)


def _result(episode, action, prediction, final, fetch_counts, exploration_rounds) -> BanditResult:
    """The run of the actions (T, P) with their predicted values (T, P, 1):
    the chosen contexts and rewards."""
    chosen = action[..., None]
    return BanditResult(
        prediction=prediction,
        label=np.take_along_axis(episode.reward, chosen, axis=-1),
        x_global=np.take_along_axis(episode.context_global, chosen[..., None], axis=-2),
        x_local=np.take_along_axis(episode.context_local, chosen[..., None], axis=-2),
        final_global=final[0],
        final_locals=list(final[1]),
        fetch_counts=fetch_counts,
        action=action,
        episode=episode,
        exploration_rounds=exploration_rounds,
    )


def cb_regret(result: BanditResult, env: BanditEnv) -> float:
    """Average forgone true mean reward of a bandit run's logged actions,
    priced from its episode's means; env is the environment the episode
    was drawn from."""
    if not isinstance(result, BanditResult):
        raise ConfigError("the run lacks the bandit fields; run/env mismatch")
    if result.clients != env.n_clients:
        raise ConfigError(f"a run of {result.clients} clients, env of {env.n_clients}")
    means = result.episode.means
    gaps = means.max(axis=-1) - np.take_along_axis(means, result.action[..., None], -1)[..., 0]
    # the running sum of a loop over the records in order, bit for bit
    return float(np.add.accumulate(gaps.ravel())[-1]) / gaps.size


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
