"""Delayed-gradient SGD over the residual model, every client in one array step.

The default "aligned" update keeps every gradient - client side or server
side - evaluated at a pair (global snapshot of round s - beta_i, local
model of round s) for a single round s, by making the client apply its own
gradient one full round trip late (the delayed-SGD setting of Agarwal &
Duchi 2011, "Distributed delayed stochastic optimization"):

    client, round t:  wl <- proj(wl - eta_i * local gradient at round s = t - alpha_i - beta_i)
    server, round t:  wg <- proj(wg - eta * sum_i global gradient at round s = t - alpha_i)

The server reconstructs its gradients from uplink records (global
features, local prediction, label); local models never leave the client.
Warmup rounds (s <= 0) skip the step.

RoundSystem is the round skeleton this learner shares with the exact
learners (fedres.erm): the models, the prediction column, the channel,
whose count of published rounds is the run's only round counter, and the
step and run loops.

Array layout: wg (dg,), wl (P, dl), the channel's ring of global
snapshots, and round-indexed rows (L, P, b, ...) of x_global, x_local and
label plus each client's prediction and residual (prediction - label).
Round r lives in row (r - 1) % L (see channel.Lag). The caller passes the
whole (N, P, b, ...) stream - run_fedres_sgd the dataset's, the bandit
policies their gathered exploration samples - so L = N and the rows are
the result columns. A round is a fixed handful of NumPy operations over
all P clients, and b = 1 is an ordinary batch of one.

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
from .errors import ConfigError, InvariantError
from .results import RunResult, check_finite, squared_loss

VARIANTS = ("aligned", "misaligned", "asymmetric")


class RoundSystem:
    """Clients, server and channel on the channel's round clock; one system
    per run. A learner supplies _client_step(row) and _server_step(index).

    streams holds the rows x_global (N, P, b, dg), x_local (N, P, b, dl) and
    label (N, P, b); round t reads row (t - 1) % N. A step publishes wg
    (every client's fetch comes back), runs the clients on the round's row
    and, when the channel says rows have arrived, the server on them.
    The models start at zero unless init_global and init_locals are given.
    """

    def __init__(self, streams, delays: DelayConfig, hyper: HyperParams, *,
                 init_global: np.ndarray | None = None,
                 init_locals: Sequence[np.ndarray] | None = None):
        self.x_global, self.x_local, self.label = streams
        rows, clients = self.label.shape[:2]
        dg, dl = self.x_global.shape[-1], self.x_local.shape[-1]
        if delays.clients != clients:
            raise ConfigError(f"{delays.clients} delay entries for {clients} clients")
        if init_locals is not None and [np.shape(w) for w in init_locals] != [(dl,)] * clients:
            raise ConfigError(f"need {clients} local models of dimension {dl}")
        self.wg = np.zeros(dg) if init_global is None else np.array(init_global, dtype=float)
        self.wl = np.zeros((clients, dl)) if init_locals is None else np.array(init_locals, float)
        self.radius = hyper.radius
        # zeros: a run that fails mid-round prices its unpredicted row as finite
        self.prediction = np.zeros(self.label.shape)
        self.channel = DelayedChannel(delays, self.wg, ring=rows)
        self.fetched = self.wg
        self._rows = rows

    @classmethod
    def build(cls, dataset, delays, hyper: HyperParams, rounds: int, seed: int,
              batch_size: int = 1, **kwargs):
        """The system over the dataset's streams for `rounds` rounds from
        `seed`, consumed in rounds / b batch rounds; delays are converted to
        batch rounds as ceil(alpha/b), ceil(beta/b)."""
        if rounds < 1 or batch_size < 1:
            raise ConfigError(f"rounds and batch size must be >= 1, got {rounds}, {batch_size}")
        delays = as_delay_config(delays, dataset.n_clients).batched(batch_size)
        return cls(build_streams(dataset, rounds, seed, batch_size), delays, hyper, **kwargs)

    def step(self) -> None:
        """Advance one round on the data already in its row."""
        channel = self.channel
        self.fetched = channel.publish_global(self.wg)
        self._client_step((channel._last_published - 1) % self._rows)
        index = channel.exchange()
        if index is not None:
            self._server_step(index)

    def run(self) -> RunResult:
        """Step through every row and return the run's columns."""
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                for _ in range(self._rows):
                    self.step()
            except InvariantError:  # a model's norm overflowed; a loss may have done so first
                done = self.channel._last_published
                check_finite(squared_loss(self.prediction[:done], self.label[:done]))
                raise
        return RunResult(self.prediction, self.label, self.x_global, self.x_local, self.wg,
                         list(self.wl), self.channel.fetch_counts)


class SgdSystem(RoundSystem):
    """The delayed-gradient learner (see the module doc): a client step
    fetches, steps and predicts every client; a server step takes one
    projected step on the clients' arrived rows."""

    def __init__(self, streams, delays: DelayConfig, hyper: HyperParams, *,
                 variant: str = "aligned", init_global: np.ndarray | None = None,
                 init_locals: Sequence[np.ndarray] | None = None):
        if variant not in VARIANTS:
            raise ConfigError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
        super().__init__(streams, delays, hyper, init_global=init_global, init_locals=init_locals)
        clients = delays.clients
        self.residual = np.empty(self.label.shape)
        self.local_prediction = np.empty(self.label.shape) if variant == "misaligned" else None
        self.variant = variant
        self.eta_global = hyper.eta_global
        self.eta_local = np.array([[hyper.eta_for(i, clients)] for i in range(clients)])
        lags = delays.round_trips if variant == "aligned" else (0,) * clients
        self._history = Lag(lags, self._rows)
        self._fresh = variant == "aligned" and min(lags) == 0

    def _client_step(self, row) -> None:
        xg, xl, y = self.x_global[row], self.x_local[row], self.label[row]
        gp = np.vecdot(xg, self.fetched[..., None, :])
        aligned = self.variant == "aligned"
        if aligned:  # step, then predict with the stepped local model
            if self._fresh:  # a zero round trip steps on its pre-step residual
                self.residual[row] = gp + np.vecdot(xl, self.wl[:, None, :]) - y
            self._local_step()
        lp = np.vecdot(xl, self.wl[:, None, :])
        np.add(gp, lp, out=self.prediction[row])
        np.subtract(self.prediction[row], y, out=self.residual[row])
        if self.local_prediction is not None:
            self.local_prediction[row] = lp
        if not aligned:  # the other variants step on the residual just stored
            self._local_step()

    def _gradients(self, r: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Batch-mean gradients (k, d) from residuals (k, b) and features (k, b, d)."""
        g = (2.0 * r)[..., None] * x
        return g[:, 0] if g.shape[1] == 1 else np.add.reduce(g, axis=1) / g.shape[1]

    def _local_step(self) -> None:
        index, who = self._history.at(self.channel._last_published)
        if index is None:
            return
        grad = self._gradients(self.residual[index], self.x_local[index])
        stepped = self._project(self.wl[who] - self.eta_local[who] * grad, who)
        if who is ALL:
            self.wl = stepped
        else:
            self.wl[who] = stepped

    def _server_step(self, index) -> None:
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
            t = self.channel._last_published
            raise InvariantError(f"{where} has a non-finite norm after round {t}") from None


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
        block = dataset.stream_block(i, rounds, seed)
        if i == 0:
            out = [np.empty((clients, *a.shape)) for a in block]
        for column, a in zip(out, block):
            column[i] = a
    n = rounds // batch_size
    return tuple(a.reshape(clients, n, batch_size, *a.shape[2:]).swapaxes(0, 1) for a in out)


def run_fedres_sgd(dataset, delays, hyper: HyperParams, rounds: int, seed: int, *,
                   variant: str = "aligned", batch_size: int = 1,
                   init_global: np.ndarray | None = None,
                   init_locals: Sequence[np.ndarray] | None = None) -> RunResult:
    """Run the composed system for the given horizon and return its columns.

    With batch_size b > 1 the horizon is consumed in T/b batch rounds:
    models update once per batch on batch-mean gradients, the global model
    is fetched once per batch, and each loss record is the batch mean.
    Delays are converted to batch rounds as ceil(alpha/b), ceil(beta/b).
    """
    return SgdSystem.build(dataset, delays, hyper, rounds, seed, batch_size, variant=variant,
                           init_global=init_global, init_locals=init_locals).run()
