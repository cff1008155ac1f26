"""Delayed-gradient SGD over the residual model, every client in one array step.

The default "aligned" update keeps every gradient - client side or server
side - evaluated at a pair (global snapshot of round s - beta_i, local
model of round s) for a single round s, by making the client apply its own
gradient one full round trip late (the delayed-SGD setting of Agarwal &
Duchi 2011, "Distributed delayed stochastic optimization"):

    client, round t:  wl <- proj(wl - eta_i * grad_local at round s = t - alpha_i - beta_i)
    server, round t:  wg <- proj(wg - eta * sum_i grad_global at round s = t - alpha_i)

The server reconstructs its gradients from uplink records (global
features, local prediction, label); local models never leave the client.
Warmup rounds (s <= 0) skip the step.

Array layout: wg (dg,), wl (P, dl), the channel's ring of global
snapshots, and round-indexed rows (L, P, b, ...) of x_global, x_local and
label plus each client's prediction and residual (prediction - label).
Round r lives in row (r - 1) % L (see channel.Lag). run_fedres_sgd passes
the whole (N, P, b, ...) stream, so L = N and the rows are the result
columns; run_round feeds one round at a time into a ring of max round
trip + 1 rows. A round is a fixed handful of NumPy operations over all P
clients, and b = 1 is an ordinary batch of one.

Shared residual: both gradients of round s are 2 (pred_s - y_s) x, because
the client's delayed pair and the server's (uplinked local prediction,
snapshot of s - beta_i) pair are exactly the pair that made round s's
prediction. So the residual is stored once and both sides read it back;
at a zero round trip the client reads the residual of its pre-step model.
The variants differ only in which residual each side reads:

    aligned     client: round t - alpha_i - beta_i   server: round t - alpha_i
    asymmetric  client: round t                      server: round t - alpha_i
    misaligned  client: round t                      server: round t - alpha_i, re-priced at wg

"asymmetric" and "misaligned" are documented-but-discouraged rules for A/B
runs; both predict with the pre-step local model.

Bits: dot products are np.vecdot (on a row, the kernel of 1-D `@`), batch
means reduce axis 1 of (P, b, d) blocks, and the server sums clients in
order, so results equal the per-sample formulas exactly.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .channel import ALL, DelayConfig, DelayedChannel, Lag, as_delay_config
from .core import HyperParams, project_ball
from .datagen import rows_block
from .errors import ConfigError, InvariantError
from .results import RunResult, check_finite, squared_loss
from .rng import substream

VARIANTS = ("aligned", "misaligned", "asymmetric")


class SgdSystem:
    """Clients, server and channel on one round clock; one system per run.

    A step publishes the global snapshot, lets every client fetch, step and
    predict, then delivers the due uplink rows and takes the server step.
    """

    def __init__(self, d_global: int, d_locals: Sequence[int], delays: DelayConfig,
                 hyper: HyperParams, *, variant: str = "aligned",
                 init_global: np.ndarray | None = None,
                 init_locals: Sequence[np.ndarray] | None = None, streams=None):
        if variant not in VARIANTS:
            raise ConfigError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
        clients = len(d_locals)
        if delays.clients != clients:
            raise ConfigError(f"{delays.clients} delay entries for {clients} clients")
        if len(set(d_locals)) != 1:
            raise ConfigError(f"clients need one local dimension, got {list(d_locals)}")
        if streams is None:  # rounds arrive one at a time through run_round
            shape = (max(delays.round_trips) + 1, clients, 1)
            streams = (np.zeros(shape + (d_global,)), np.zeros(shape + (d_locals[0],)),
                       np.zeros(shape))
        self.x_global, self.x_local, self.label = streams
        self.prediction = np.empty(self.label.shape)
        self.residual = np.empty(self.label.shape)
        self.local_prediction = np.empty(self.label.shape) if variant == "misaligned" else None
        self.delays, self.variant, self.radius = delays, variant, hyper.radius
        self.eta_global = hyper.eta_global
        self.eta_local = np.array([[hyper.eta_for(i, clients)] for i in range(clients)])
        self.wg = np.zeros(d_global) if init_global is None else np.array(init_global, dtype=float)
        self.wl = (np.zeros((clients, d_locals[0])) if init_locals is None
                   else np.array([np.asarray(w, dtype=float) for w in init_locals]))
        self.channel = DelayedChannel(delays, self.wg, ring=len(self.label))
        self.fetched = self.channel.initial_global
        lags = delays.round_trips if variant == "aligned" else (0,) * clients
        self._history = Lag(lags, len(self.label))
        self._fresh = variant == "aligned" and min(lags) == 0
        self.t = self.predicted = 0

    def step(self) -> None:
        """Advance one round on the data already in this round's rows."""
        t = self.t = self.t + 1
        row = self._history.row(t)
        xg, xl, y = self.x_global[row], self.x_local[row], self.label[row]
        self.channel.publish_global(t, self.wg)
        self.fetched = self.channel.fetch_round(t)
        gp = np.vecdot(xg, self.fetched[..., None, :])
        if self.variant == "aligned":
            if self._fresh:  # a zero round trip steps on its pre-step residual
                self.residual[row] = gp + np.vecdot(xl, self.wl[:, None, :]) - y
            self._client_step(t)
            self._predict(row, gp, xl, y)
        else:
            self._predict(row, gp, xl, y)
            self._client_step(t)
        self._server_step(t)

    def run_round(self, data_by_client: Sequence) -> None:
        """One round on one Sample per client (batch size 1)."""
        if len(data_by_client) != len(self.wl):
            raise ConfigError("one datum per client per round is required")
        row = self._history.row(self.t + 1)
        self.x_global[row, :, 0], self.x_local[row, :, 0], self.label[row, :, 0] = rows_block(
            data_by_client)
        self.step()

    def _predict(self, row, gp, xl, y) -> None:
        self.predicted = self.t
        lp = np.vecdot(xl, self.wl[:, None, :])
        np.add(gp, lp, out=self.prediction[row])
        np.subtract(self.prediction[row], y, out=self.residual[row])
        if self.local_prediction is not None:
            self.local_prediction[row] = lp

    def _gradients(self, r: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Batch-mean gradients (k, d) from residuals (k, b) and features (k, b, d)."""
        g = (2.0 * r)[..., None] * x
        return g[:, 0] if g.shape[1] == 1 else np.add.reduce(g, axis=1) / g.shape[1]

    def _client_step(self, t: int) -> None:
        index, who = self._history.at(t)
        if index is None:
            return
        grad = self._gradients(self.residual[index], self.x_local[index])
        stepped = self._project(self.wl[who] - self.eta_local[who] * grad, who)
        if who is ALL:
            self.wl = stepped
        else:
            self.wl[who] = stepped

    def _server_step(self, t: int) -> None:
        index, _ = self.channel.exchange(t)
        if index is None:
            return
        xg, r = self.x_global[index], self.residual[index]
        if self.local_prediction is not None:
            r = np.vecdot(xg, self.wg) + self.local_prediction[index] - self.label[index]
        grads = self._gradients(r, xg)
        # equals a `gsum += g` loop over clients from zeros, bit for bit
        gsum = 0.0 + (np.add.accumulate(grads, axis=0)[-1] if len(grads) > 1 else grads[0])
        self.wg = self._project(self.wg - self.eta_global * gsum)

    def _project(self, v: np.ndarray, who=None) -> np.ndarray:
        try:
            return project_ball(v, self.radius)
        except InvariantError:
            where = "the global model"
            if who is not None:
                bad = np.argmin(np.isfinite(np.vecdot(v, v)))
                where = f"the local model of client {np.arange(len(self.wl))[who][bad]}"
            raise InvariantError(f"{where} has a non-finite norm after round {self.t}") from None

    def prediction_pair(self, client_id: int) -> tuple[np.ndarray, np.ndarray]:
        """The pair the client would predict with right now."""
        f = self.fetched
        return (f if f.ndim == 1 else f[client_id]), self.wl[client_id]

    def alignment_offsets(self) -> list[tuple[int, int, int]]:
        """(global_round, local_round, owning client's beta) of every gradient
        so far: each client's steps in order, then the server's by round."""
        alpha, beta = self.delays.alpha, self.delays.beta
        out = [(s - beta[i], s, beta[i]) for i, lag in enumerate(self._history.lag.tolist())
               for s in range(1, self.t - lag + 1)]
        return out + [(t if self.variant == "misaligned" else t - a - beta[i], t - a, beta[i])
                      for t in range(1, self.t + 1) for i, a in enumerate(alpha) if t > a]


def build_streams(dataset, rounds: int, seed: int, batch_size: int = 1):
    """Every client's stream as blocks x_global (N, P, b, dg), x_local
    (N, P, b, dl) and label (N, P, b), N = rounds / b: round-major views of
    client-major arrays, so each client's whole stream stays contiguous."""
    if rounds % batch_size != 0:
        raise ConfigError(f"batch size {batch_size} does not divide horizon {rounds}")
    if len(set(dataset.d_locals)) != 1:
        raise ConfigError(f"clients need one local dimension, got {list(dataset.d_locals)}")
    clients = dataset.n_clients
    for i in range(clients):
        block = dataset.stream_block(i, rounds, substream(seed, f"stream-{i}"))
        if i == 0:
            out = [np.empty((clients, *a.shape)) for a in block]
        for column, a in zip(out, block):
            column[i] = a
    n = rounds // batch_size
    return tuple(a.reshape(clients, n, batch_size, *a.shape[2:]).swapaxes(0, 1) for a in out)


def run_fedres_sgd(dataset, delays, hyper: HyperParams, rounds: int, seed: int, *,
                   variant: str = "aligned", batch_size: int = 1,
                   init_global: np.ndarray | None = None,
                   init_locals: Sequence[np.ndarray] | None = None,
                   record_provenance: bool = False) -> RunResult:
    """Run the composed system for the given horizon and return its columns.

    With batch_size b > 1 the horizon is consumed in T/b batch rounds:
    models update once per batch on batch-mean gradients, the global model
    is fetched once per batch, and each loss record is the batch mean.
    Delays are converted to batch rounds as ceil(alpha/b), ceil(beta/b).
    record_provenance keeps the system as `result.system`, whose
    alignment_offsets() lists the pairing of every gradient.
    """
    if rounds < 1 or batch_size < 1:
        raise ConfigError(f"rounds and batch size must be >= 1, got {rounds}, {batch_size}")
    delays = as_delay_config(delays, dataset.n_clients).batched(batch_size)
    streams = build_streams(dataset, rounds, seed, batch_size)
    system = SgdSystem(dataset.d_global, dataset.d_locals, delays, hyper, variant=variant,
                       init_global=init_global, init_locals=init_locals, streams=streams)
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            for _ in range(len(system.label)):
                system.step()
        except InvariantError:  # a model's norm overflowed; a loss may have done so first
            done = system.predicted
            check_finite(squared_loss(system.prediction[:done], system.label[:done]))
            raise
    result = RunResult(system.prediction, system.label, system.x_global, system.x_local,
                       system.wg, list(system.wl), system.channel.fetch_counts)
    if record_provenance:
        result.system = system  # type: ignore[attr-defined]
    return result
