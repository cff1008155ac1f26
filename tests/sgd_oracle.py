"""Per-client, per-round loop for the delayed-gradient learner, kept as the
oracle for fedres.engine.

Written from the update rules of the engine's module docstring (delayed
SGD, Agarwal & Duchi 2011), not from its code. Every round t, each client
in turn fetches the snapshot of round t - beta_i (the initial model for
rounds <= 0), steps and predicts; then the server sums, in client order
from zeros, the global gradients of the rounds t - alpha_i that arrive and
takes one step. A gradient is the batch mean of conftest.joint_grads over
the round's rows, evaluated at a recorded (global, local) model pair:

    aligned     client: the pair of round t - alpha_i - beta_i, stepped
                before predicting (a zero round trip steps on round t's
                pre-step pair); server: the pair of round t - alpha_i
    asymmetric  client: the pair of round t, after predicting;
                server: the pair of round t - alpha_i
    misaligned  client: as asymmetric; server: round t - alpha_i's local
                model with the current global model

Warmup rounds (a step whose round is < 1) skip the step. At batch size
b > 1, rounds are batch rounds and a delay of d rounds is ceil(d / b) of
them. Reductions take the forms the engine documents: dot products are
1-D `@`, a batch mean is np.add.reduce over the stacked rows divided by b,
and the server sum is a `+` loop over clients from zeros. Models go through core.project_ball one
vector at a time: conftest.ball_project_oracle does not nudge a scaled
vector back inside the ball, so its bits differ whenever the ball binds.
"""

from __future__ import annotations

import math

import numpy as np

from fedres.channel import as_delay_config
from fedres.core import project_ball
from fedres.engine import build_streams

from conftest import joint_grads


def run_oracle(dataset, delays, hyper, rounds: int, seed: int, *, variant: str = "aligned",
               batch_size: int = 1, init_global=None, init_locals=None) -> dict:
    """The delayed-SGD run on run_fedres_sgd's arguments, as plain loops.

    Returns the predictions (N, P, b), the final models, each client's fetch
    count and the (global round, local round, owning client's beta) of every
    gradient: each client's steps in order, then the server's by round.
    """
    clients, b = dataset.n_clients, batch_size
    delays = as_delay_config(delays, clients)  # in rounds; a batch round is b of them
    alpha, beta = ([math.ceil(d / b) for d in side] for side in (delays.alpha, delays.beta))
    x_global, x_local, label = build_streams(dataset, rounds, seed, b)
    etas = np.broadcast_to(np.asarray(hyper.eta_local, dtype=float), (clients,))
    dg, dl = x_global.shape[-1], x_local.shape[-1]
    initial = np.zeros(dg) if init_global is None else np.array(init_global, float)
    wg = initial
    wl = [np.zeros(dl) if init_locals is None else np.array(init_locals[i], float)
          for i in range(clients)]

    def batch_mean(g, w, i, s, side):
        """Mean over round s's rows of client i of one block gradient at (g, w)."""
        rows = zip(x_global[s - 1, i], x_local[s - 1, i], label[s - 1, i])
        grads = np.stack([joint_grads(g, w, xg, xl, y)[side] for xg, xl, y in rows])
        return np.add.reduce(grads, axis=0) / b

    snapshots = {}  # round -> the global model published in it
    pairs = {}  # (client, round) -> the (global, local) pair that priced the round
    prediction = np.empty(label.shape)
    fetches = [0] * clients
    client_offsets = [[] for _ in range(clients)]
    server_offsets = []
    for t in range(1, len(label) + 1):
        snapshots[t] = wg
        for i in range(clients):
            fetched = snapshots.get(t - beta[i], initial)
            fetches[i] += 1
            if variant == "aligned":
                s = t - alpha[i] - beta[i]
                if s >= 1:
                    g, w = (fetched, wl[i]) if s == t else pairs[i, s]
                    wl[i] = project_ball(wl[i] - etas[i] * batch_mean(g, w, i, s, 1),
                                         hyper.radius)
                    client_offsets[i].append((s - beta[i], s, beta[i]))
                pairs[i, t] = fetched, wl[i]
            else:
                pairs[i, t] = fetched, wl[i]
                wl[i] = project_ball(wl[i] - etas[i] * batch_mean(fetched, wl[i], i, t, 1),
                                     hyper.radius)
                client_offsets[i].append((t - beta[i], t, beta[i]))
            g, w = pairs[i, t]
            prediction[t - 1, i] = [g @ xg + w @ xl
                                    for xg, xl in zip(x_global[t - 1, i], x_local[t - 1, i])]
        gsum, arrived = np.zeros(len(wg)), False
        for i in range(clients):
            s = t - alpha[i]
            if s < 1:
                continue
            g, w = pairs[i, s]
            if variant == "misaligned":
                g = wg
            gsum = gsum + batch_mean(g, w, i, s, 0)
            server_offsets.append((t if variant == "misaligned" else s - beta[i], s, beta[i]))
            arrived = True
        if arrived:
            wg = project_ball(wg - hyper.eta_global * gsum, hyper.radius)
    return {
        "prediction": prediction,
        "final_global": wg,
        "final_locals": np.array(wl).reshape(clients, -1),
        "fetch_counts": fetches,
        "offsets": [o for per_client in client_offsets for o in per_client] + server_offsets,
    }


def alignment_offsets(system) -> list[tuple[int, int, int]]:
    """(global_round, local_round, owning client's beta) of every gradient a
    stepped SgdSystem has taken, read from the lags its clients step on and
    its channel's delays and round count: each client's steps in order, then
    the server's by round."""
    alpha, beta = system.channel.delays.alpha, system.channel.delays.beta
    rounds = system.channel._last_published
    out = [(s - beta[i], s, beta[i]) for i, lag in enumerate(system._history.lag.tolist())
           for s in range(1, rounds - lag + 1)]
    return out + [(t if system.variant == "misaligned" else t - a - beta[i], t - a, beta[i])
                  for t in range(1, rounds + 1) for i, a in enumerate(alpha) if t > a]
