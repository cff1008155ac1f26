"""The per-block bandit policy loop, kept as the oracle for fedres.bandit.

The policies draw one episode per rollout, step the learner once over the
gathered exploration samples and price the whole horizon in one pass.
This module keeps the loop they replaced: each policy draws its own
contexts and rewards, walks the horizon one exploration block at a time,
prices the block's actions under the model pair in force, and feeds the
block's exploration sample to a learner with one row per exploration
round, one round at a time. regret() reprices the logged contexts under
the env.
"""

from __future__ import annotations

import numpy as np

from fedres.channel import as_delay_config
from fedres.core import HyperParams
from fedres.engine import SgdSystem
from fedres.rng import substream


def run_epsilon_greedy(env, delays, hyper, rounds: int, period: int, seed: int) -> dict:
    return run_policy(env, delays, hyper, rounds, period, seed, uniform=False)


def run_uniform_policy(env, rounds: int, seed: int) -> dict:
    return run_policy(env, 0, HyperParams(), rounds, rounds + 1, seed, uniform=True)


def run_policy(env, delays, hyper, rounds, period, seed, uniform) -> dict:
    clients = env.n_clients
    delays = as_delay_config(delays, clients)
    shape = (rounds // period, clients, 1)  # one row per exploration round
    system = SgdSystem((np.zeros(shape + (env.d_global,)), np.zeros(shape + (env.d_locals[0],)),
                        np.zeros(shape)), delays, hyper)
    xg, xl = env.context_blocks(substream(seed, "bandit-contexts"), rounds)
    reward = env.noisy_rewards(substream(seed, "bandit-rewards"), env.mean_rewards(xg, xl))
    rng = substream(seed, "bandit-uniform" if uniform else "bandit-explore")
    every = np.arange(clients)
    steps = 0
    action = np.empty((rounds, clients), dtype=np.int64)
    value = np.empty(reward.shape)
    for start in range(0, rounds, period):
        block = slice(start, min(start + period, rounds))
        value[block] = (np.vecdot(xg[block], system.fetched[..., None, :])
                        + np.vecdot(xl[block], system.wl[:, None, :]))
        action[block] = np.argmax(value[block], axis=-1)
        if block.stop % period == 0:  # the block's last round explores
            t, pick = block.stop - 1, rng.integers(env.k, size=clients)
            action[t] = pick
            row = steps  # the row of the system's next round
            system.x_global[row, :, 0] = xg[t, every, pick]
            system.x_local[row, :, 0] = xl[t, every, pick]
            system.label[row, :, 0] = reward[t, every, pick]
            system.step()
            steps += 1
    if uniform:
        action = rng.integers(env.k, size=action.shape)
    chosen = action[..., None]
    return {
        "action": action,
        "prediction": np.take_along_axis(value, chosen, axis=-1),
        "label": np.take_along_axis(reward, chosen, axis=-1),
        "x_global": np.take_along_axis(xg, chosen[..., None], axis=-2),
        "x_local": np.take_along_axis(xl, chosen[..., None], axis=-2),
        "final_global": system.wg,
        "final_locals": system.wl.copy(),
        "exploration_rounds": steps,
        "context_global": xg,
        "context_local": xl,
    }


def regret(run: dict, env) -> float:
    """Average forgone true mean reward, the running sum over the records in order."""
    means = env.mean_rewards(run["context_global"], run["context_local"])
    chosen = np.take_along_axis(means, run["action"][..., None], -1)[..., 0]
    total = 0.0
    for gap in (means.max(axis=-1) - chosen).ravel().tolist():
        total += gap
    return total / run["action"].size
