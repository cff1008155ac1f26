"""Explicit-archive oracle for the exact learners (ERM and fictitious play).

Each side keeps every archived (xg, xl, y) row and rebuilds its
right-hand side from the raw archive with one shared per-row loop, so the
two variants differ only in which counterpart value that loop reads:

    client  erm: the global model fetched now   fictitious: the one fetched with the sample
    server  erm: the sender's newest local model  fictitious: the local prediction it uploaded

Delays (uniform) are simulated with plain dictionaries. This is O(round)
per solve, which is why the library keeps running sums instead.
"""

from __future__ import annotations

import numpy as np

from fedres.channel import as_delay_config
from fedres.engine import build_streams
from fedres.results import RunResult
from fedres.solver import solve_gram


class ArchiveClient:
    def __init__(self, d_local, radius, variant, init_local=None):
        self.radius, self.variant = radius, variant
        self.wl = np.zeros(d_local) if init_local is None else np.array(init_local, dtype=float)
        self.gram = np.zeros((d_local, d_local))
        self.archive = []  # (row, global model fetched in its round)

    def round(self, fetched, row) -> float:
        """Solve over the archive, predict, archive the (xg, xl, y) row;
        returns the prediction."""
        if self.archive:
            rhs = np.zeros_like(self.wl)
            for (xg, xl, y), frozen_g in self.archive:
                g = fetched if self.variant == "erm" else frozen_g
                rhs += (y - float(g @ xg)) * xl
            self.wl = solve_gram(self.gram, rhs, self.radius)
        xg, xl, _ = row
        pred = float(fetched @ xg) + float(self.wl @ xl)
        self.archive.append((row, fetched))
        self.gram += np.outer(xl, xl)
        return pred


class ArchiveServer:
    def __init__(self, clients, d_global, radius, variant, init_global=None):
        self.radius, self.variant = radius, variant
        self.wg = np.zeros(d_global) if init_global is None else np.array(init_global, dtype=float)
        self.gram = np.zeros((d_global, d_global))
        self.latest_wl = [None] * clients
        self.archive = [[] for _ in range(clients)]  # (row, local prediction at upload)

    def round(self, uplinks) -> np.ndarray:
        """Absorb (client, (xg, xl, y) row, sent local model) records in
        order, then re-solve once any data has arrived."""
        for i, row, wl in uplinks:
            xg, xl, _ = row
            self.latest_wl[i] = wl
            self.archive[i].append((row, float(wl @ xl)))
            self.gram += np.outer(xg, xg)
        if any(self.archive):
            rhs = np.zeros_like(self.wg)
            for i, entries in enumerate(self.archive):
                for (xg, xl, y), frozen_lp in entries:
                    lp = float(self.latest_wl[i] @ xl) if self.variant == "erm" else frozen_lp
                    rhs += (y - lp) * xg
            self.wg = solve_gram(self.gram, rhs, self.radius)
        return self.wg


def run_oracle(dataset, delays, hyper, rounds, seed, variant, *, init_global=None,
               init_locals=None) -> RunResult:
    """The exact learner `variant` on explicit archives, same streams and
    round clock as run_fedres_erm / run_fictitious_play."""
    delays = as_delay_config(delays, dataset.n_clients)
    alpha, beta = delays.alpha[0], delays.beta[0]
    x_global, x_local, label = build_streams(dataset, rounds, seed)
    clients = [
        ArchiveClient(x_local.shape[-1], hyper.radius, variant,
                      None if init_locals is None else init_locals[i])
        for i in range(dataset.n_clients)
    ]
    server = ArchiveServer(len(clients), x_global.shape[-1], hyper.radius, variant, init_global)
    snapshots = {0: server.wg}  # every round <= 0 reads the initial model
    outbox: dict[int, list] = {}
    prediction = np.empty(label.shape)
    for t in range(1, rounds + 1):
        snapshots[t] = server.wg
        fetched = snapshots[max(t - beta, 0)]
        for i, client in enumerate(clients):
            row = x_global[t - 1, i, 0], x_local[t - 1, i, 0], float(label[t - 1, i, 0])
            prediction[t - 1, i, 0] = client.round(fetched, row)
            outbox.setdefault(t + alpha, []).append((i, row, client.wl))
        server.round(outbox.pop(t, []))
    return RunResult(prediction, label, x_global, x_local, server.wg, [c.wl for c in clients],
                     [rounds] * len(clients))
