"""Exact empirical-risk-minimization learners over the residual model,
plus the frozen-counterpart ("fictitious play") variant.

Each round the client solves, over its full archive, the ball-constrained
least-squares problem for its local model with the freshly fetched global
model applied to every archived sample; the server symmetrically re-solves
the global model applying each client's newest local model to that
client's whole archive. The frozen variant instead keeps, per archived
sample, the counterpart model that was current when the sample was
observed - so the client only ever needs to upload (x_global, local
prediction, label) - at the cost of the two sides locking each other into
stale targets.

Solves run in O(d^3) per round from incrementally maintained Gram blocks:
the frozen variant accumulates its residual right-hand sides once per
sample, while the re-applying variant keeps per-client cross blocks and
recombines them with the newest counterpart each round.

Array layout (ErmSystem, P clients):
  client side  wl (P, dl), gram (P, dl, dl) = sum xl xl^T, ly (P, dl) =
               sum y xl, cross (P, dl, dg) = sum xl xg^T, frozen_rhs (P, dl)
               = sum (y - fetched . xg) xl with the fetch of each sample's round;
  server side  wg (dg,), gram_g (dg, dg) over every arrived sample, gy (P, dg),
               cross_g (P, dg, dl) = sum xg xl^T, frozen_rhs_g (dg,) =
               sum (y - local prediction) xg;
  round-indexed rows (N, P, ...) of the stream blocks, the predictions and
  the local predictions, plus (erm only) the local model each client sent.
A round publishes wg, takes every client's fetch with channel.fetch_round(t),
solves each client's local model in a loop over clients, predicts, and then
asks channel.exchange(t) which round's rows reach the server: an uplink is
a row index, never an object. The server reads the arrived rows' features,
labels and either the sent local models (erm) or local predictions
(fictitious), then re-solves wg.

Bits: each right-hand side is formed on row views with the expression of
the per-client learner this replaced (ly[i] - cross[i] @ fetched), dot
products are np.vecdot (on a row, the kernel of 1-D `@`), client-side outer
products broadcast x[:, :, None] * x[:, None, :], and the server's
cross-client sums (gram_g, frozen_rhs_g, the erm right-hand side) add
clients one at a time in ascending order; the results equal the per-client
formulas exactly (tests/data/sgd_characterization.json).

Delays must be uniform across clients here, so every round after the first
alpha delivers one row of every client; the delayed-gradient learner
handles heterogeneous delays. There is no explicit-rebuild mode: the
explicit-archive oracle the fast path is checked against lives with the
tests.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .channel import DelayConfig, DelayedChannel, as_delay_config
from .core import HyperParams
from .engine import build_streams
from .errors import ConfigError
from .results import RunResult
from .solver import solve_gram

VARIANTS = ("erm", "fictitious")


class ErmSystem:
    """Clients, server and channel on one round clock over whole streams
    (the (N, P, 1, ...) blocks of build_streams); one system per run."""

    def __init__(self, d_global: int, d_locals: Sequence[int], delays: DelayConfig,
                 hyper: HyperParams, streams, *, variant: str = "erm",
                 init_global: np.ndarray | None = None,
                 init_locals: Sequence[np.ndarray] | None = None):
        if variant not in VARIANTS:
            raise ConfigError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
        if not delays.is_uniform:
            raise ConfigError("exact-solve learners require uniform per-client delays")
        clients, dl = len(d_locals), d_locals[0]
        self.x_global, self.x_local, self.label = (a[:, :, 0] for a in streams)
        self.prediction = np.empty(self.label.shape)
        self.local_prediction = np.empty(self.label.shape)
        self.erm, self.radius = variant == "erm", hyper.radius
        self.sent_wl = np.empty(self.x_local.shape) if self.erm else None
        self.wg = np.zeros(d_global) if init_global is None else np.array(init_global, dtype=float)
        self.wl = (np.zeros((clients, dl)) if init_locals is None
                   else np.array([np.asarray(w, dtype=float) for w in init_locals]))
        self.gram = np.zeros((clients, dl, dl))
        self.ly = np.zeros((clients, dl))
        self.cross = np.zeros((clients, dl, d_global))
        self.frozen_rhs = np.zeros((clients, dl))
        self.gram_g = np.zeros((d_global, d_global))
        self.gy = np.zeros((clients, d_global))
        self.cross_g = np.zeros((clients, d_global, dl))
        self.frozen_rhs_g = np.zeros(d_global)
        self.channel = DelayedChannel(delays, self.wg, ring=len(self.label))
        self.t = 0

    def step(self) -> None:
        """Advance one round on the next row of the streams."""
        t = self.t = self.t + 1
        row = t - 1
        xg, xl, y = self.x_global[row], self.x_local[row], self.label[row]
        self.channel.publish_global(t, self.wg)
        fetched = self.channel.fetch_round(t)
        if t > 1:  # every archive holds a sample
            for i in range(len(self.wl)):
                rhs = self.ly[i] - self.cross[i] @ fetched if self.erm else self.frozen_rhs[i]
                self.wl[i] = solve_gram(self.gram[i], rhs, self.radius)
        gp = np.vecdot(xg, fetched)
        lp = self.local_prediction[row] = np.vecdot(xl, self.wl)
        self.prediction[row] = gp + lp
        self.gram += xl[:, :, None] * xl[:, None, :]
        if self.erm:
            self.ly += y[:, None] * xl
            self.cross += xl[:, :, None] * xg[:, None, :]
            self.sent_wl[row] = self.wl
        else:
            self.frozen_rhs += (y - gp)[:, None] * xl
        self._server_step(t)

    def _server_step(self, t: int) -> None:
        index, _ = self.channel.exchange(t)
        if index is None:
            return
        xg, y = self.x_global[index], self.label[index]
        outer = xg[:, :, None] * xg[:, None, :]
        if self.erm:
            sent = self.sent_wl[index]
            self.gy += y[:, None] * xg
            self.cross_g += xg[:, :, None] * self.x_local[index][:, None, :]
            rhs = np.zeros(len(self.wg))
            for i in range(len(xg)):
                self.gram_g += outer[i]
                rhs += self.gy[i] - self.cross_g[i] @ sent[i]
        else:
            terms = (y - self.local_prediction[index])[:, None] * xg
            for i in range(len(xg)):
                self.gram_g += outer[i]
                self.frozen_rhs_g += terms[i]
            rhs = self.frozen_rhs_g
        self.wg = solve_gram(self.gram_g, rhs, self.radius)


def _run(dataset, delays, hyper, rounds, seed, variant, init_global, init_locals):
    if rounds < 1:
        raise ConfigError(f"rounds must be >= 1, got {rounds}")
    delays = as_delay_config(delays, dataset.n_clients)
    x_global, x_local, label = streams = build_streams(dataset, rounds, seed)
    system = ErmSystem(dataset.d_global, dataset.d_locals, delays, hyper, streams,
                       variant=variant, init_global=init_global, init_locals=init_locals)
    for _ in range(rounds):
        system.step()
    return RunResult(system.prediction[:, :, None], label, x_global, x_local, system.wg,
                     list(system.wl), system.channel.fetch_counts)


def run_fedres_erm(dataset, delays, hyper: HyperParams, rounds: int, seed: int, *,
                   init_global=None, init_locals=None) -> RunResult:
    """Re-applying exact learner: newest counterparts hit the whole archive."""
    return _run(dataset, delays, hyper, rounds, seed, "erm", init_global, init_locals)


def run_fictitious_play(dataset, delays, hyper: HyperParams, rounds: int, seed: int, *,
                        init_global=None, init_locals=None) -> RunResult:
    """Frozen-counterpart variant: each archived sample keeps the model pair
    of its own round; cheap to communicate, prone to locking up."""
    return _run(dataset, delays, hyper, rounds, seed, "fictitious", init_global, init_locals)
