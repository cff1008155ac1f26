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

Array layout: wg (dg,), wl (P, dl), and round-indexed rows (N, P, b, ...)
of x_global, x_local and label plus each client's prediction and residual
(prediction - label); the channel holds the round-indexed global models.
Round r lives in row r - 1 (see channel.Lag). The caller passes the whole
(N, P, b, ...) stream - run_fedres_sgd the dataset's, the bandit policies
their gathered exploration samples - and the rows are the result columns.
b = 1 is an ordinary batch of one.

Which path runs: under the aligned rule at batch size 1 - fleet's, the
bandit's and the three-way protocol's shape - every round runs in C
wherever fedres.native loaded and takes the rows (the C round, below);
run() makes one call for all rows and step() one per round. The exact
learners' C round (fedres.erm) keeps the same contract. Elsewhere (b > 1,
the other variants, no C compiler) the Python paths run: blocks, and for
one client at zero delay with batch size 1 the single-client loop.

Blocks: under the aligned rule everything the next

    L = max(1, min_i min(beta_i + 1, alpha_i + beta_i))   (batch rounds)

rounds read is known before they start. Their fetches reach back to
global models of round <= t (L <= beta_i + 1), and their client steps read
residuals of rounds < t (L <= alpha_i + beta_i), so both local chains
start from models already in hand. run() therefore advances a block of L
rounds at a time, with one NumPy call each over (L, P, b, d) slices for
the block's fetches, client gradients, predictions and residuals, and
server client sums. Only the two projected chains, wl <- proj(wl - step_k)
and wg <- proj(wg - step_k), stay a loop over the block's rounds; the
global chain writes each round's model into the channel's row of it. L is
1 at a zero round trip, for the other variants (their clients step on the
round just priced) and for the exact learners; step() is always a block of
one round, and a block of one carries no round axis. Buffers are O(L P d).
A block that raises InvariantError is replayed from its start a round at
a time, so errors name the round and client they always named. The block
path is the reference the C round is tested against (tests/test_native.py).

The C round (fedres.native.rounds and advance; _loops.c's fedres_rounds)
runs the block path's rounds one at a time over the system's own arrays,
through a view built once with the system, whose scratch arrays it holds:
it reads the rows where they lie, at any row and client strides, fetches
from the channel's history, writes predictions, residuals and every
round's global model into their rows, and steps wg and wl in place. Every
element is computed as the block path computes it: np.vecdot's elements
are 0.0 + the OpenBLAS ddot NumPy calls, each row is projected as
project_ball does, nudges included, the server sums clients in order from
the first and adds that to 0.0, and a client not live yet adds
(2.0 * 0.0) x of the row the block path reads for it. On a non-finite
model it stops, with the models in force, and returns the round and
client, which the InvariantError names as the block path's does.

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

Single client: one client at zero delay with batch size 1 under the aligned
rule (the three-way protocol's shape) is where a round costs the most per
sample in Python, and blocks cannot help it: a zero round trip makes every
block one round long. Where the C round does not run, the input alone
selects a loop of its own in run(), _run_single: each round reads the rows
x[t, 0, 0] by index, prices and steps the client at the fetch wg, then the
server, and projects through project_ball's 1-D path; the channel's
history, exchange(), the residual column and the (P, b, d) shapes are
skipped. The loop leaves what the C round leaves: the final models, or
the ones in force when a model stopped being finite, the round count, and
the InvariantError naming that model and its round (only SGD's can fail:
the exact learners' solves always answer). _run_single takes ndarray.dot
products, keeps labels, residuals and the prediction as Python floats and
the step sizes and the server's `0.0 +` as 0-d arrays. Its bits are the
block path's: `.dot` is 1-D `@`'s BLAS call, np.vecdot's kernel, with less
dispatch (at d = 1 a bare product, which `@` adds to 0.0: hence gp's
`+ 0.0`, and no sum with gp is -0.0); a 0-d operand is a Python float's IEEE
operation on a faster path; Python float `+`, `-` and `*` are NumPy's IEEE
operations; and the 1-D and 2-D projections compute rows alike. step()
takes the block path.

Bits: a block computes every element exactly as its rounds one at a time
would, so the bits do not depend on L. Dot products are np.vecdot, whose
per-element kernel is 1-D `@` whatever the leading axes; batch means
reduce the batch axis of (..., P, b, d) blocks, the same reduction per
(round, client) at any leading shape; the server sums each round's
clients in ascending order with np.add.accumulate along the client axis
(a client not live yet adds (2.0 * 0.0) x, zeros that change no bit after
the final `0.0 +` unless x is not finite); and the chains step round by
round in order. So results equal
the per-sample formulas exactly.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import native
from .channel import DelayConfig, DelayedChannel, Lag, as_delay_config
from .core import HyperParams, project_ball
from .errors import ConfigError, InvariantError
from .results import RunResult, check_finite, squared_loss

VARIANTS = ("aligned", "misaligned", "asymmetric")


def _failure(status: int, round_: int, client: int) -> InvariantError:
    """The error of a model whose norm stopped being finite in a round, by
    its fedres.native status; client names the local model."""
    if status == native.GLOBAL_NOT_FINITE:
        return InvariantError(f"the global model has a non-finite norm after round {round_}")
    return InvariantError(f"the local model of client {client} has a non-finite norm "
                          f"after round {round_}")


class RoundSystem:
    """Clients, server and channel on the channel's round clock; one system
    per run. A learner supplies _client_step(rows, fetched, n) for a block
    of n rounds (rows an int when n is 1, else a slice) and
    _server_step(n, arrivals) for the rows that arrive in it (arrivals as
    channel.Lag.block returns them), which writes the global model after
    each of its rounds into their rows, channel.after.

    streams holds the rows x_global (N, P, b, dg), x_local (N, P, b, dl) and
    label (N, P, b); round t reads row t - 1. A block of rounds opens on the
    channel (every client's fetches come back), runs the clients on the
    block's rows and, when the channel says rows have arrived in it, the
    server on them. step() runs a block of one round and run() blocks of
    `block` rounds, or for one client at zero delay with batch size 1 the
    learner's own loop, _run_single (see the module doc). A learner whose C
    round takes the system sets _rounds, its fedres.native view, and then
    step() and run() make one call of it each instead. Stepping past the
    streams and run() after step() are ConfigErrors. The models start at
    zero unless init_global and init_locals are given, which must be
    finite. wg and wl are written in place on every path, C or Python: an
    array taken from system.wg before step() or run() is system.wg after
    it, and holds the new model (a C view holds their addresses).
    """

    def __init__(self, streams, delays: DelayConfig, hyper: HyperParams, *,
                 init_global: np.ndarray | None = None,
                 init_locals: Sequence[np.ndarray] | None = None):
        self.x_global, self.x_local, self.label = streams
        rows, clients = self.label.shape[:2]
        dg, dl = self.x_global.shape[-1], self.x_local.shape[-1]
        if delays.clients != clients:
            raise ConfigError(f"{delays.clients} delay entries for {clients} clients")
        if init_global is not None and np.shape(init_global) != (dg,):
            raise ConfigError(f"need a global model of dimension {dg}")
        if init_locals is not None and [np.shape(w) for w in init_locals] != [(dl,)] * clients:
            raise ConfigError(f"need {clients} local models of dimension {dl}")
        self.wg = np.zeros(dg) if init_global is None else np.array(init_global, dtype=float)
        self.wl = np.zeros((clients, dl)) if init_locals is None else np.array(init_locals, float)
        if not (np.isfinite(self.wg).all() and np.isfinite(self.wl).all()):
            raise ConfigError("the initial models must be finite")
        self.radius = hyper.radius
        # zeros: a run that fails mid-round prices its unpredicted row as finite
        self.prediction = np.zeros(self.label.shape)
        self.block = 1  # rounds per run() block; SgdSystem sets its own
        self.channel = DelayedChannel(delays, self.wg, rows)
        self._rows = rows
        # one client at zero delay with batch size 1: run() takes _run_single
        self._single = clients == 1 and self.label.shape[2] == 1 and delays.round_trips == (0,)
        self._rounds = None  # the learner's C round (a fedres.native view), where it takes the rows

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
        """Advance one round on the data already in its row; a model that
        stops being finite raises run()'s InvariantError, and NumPy warns
        of nothing."""
        if self._rounds is None:
            with np.errstate(over="ignore", invalid="ignore"):
                self._advance(1)
        else:
            self._run_c(1)

    def _run_c(self, n: int) -> None:
        """The next n rounds in one call of the learner's C round
        (fedres.native.advance), which leaves the models, rows and channel
        history as blocks of them do and names a failing model's round and
        client as they do."""
        channel = self.channel
        done = channel._last_published
        if done + n > self._rows:
            raise ConfigError(f"round {done + n} is past the run's {self._rows} rounds")
        status, channel._last_published, client = native.advance(self._rounds, done, n)
        if status:
            raise _failure(status, channel._last_published, client)

    def _advance(self, n: int) -> None:
        """Open the next n rounds on the channel and run them."""
        channel = self.channel
        fetched = channel.publish_global(n)
        start = channel._last_published - n
        # a block of one round has no round axis, like one row of the streams
        self._client_step(start if n == 1 else slice(start, start + n), fetched, n)
        arrivals = channel.exchange()
        if arrivals is None:
            channel.after[:] = self.wg
        else:
            self._server_step(n, arrivals)

    def run(self) -> RunResult:
        """Run every row and return the run's columns: in one call of the
        learner's C round where it has one; else one client at zero delay
        with batch size 1 in the learner's single-client loop, and anything
        else in blocks. A block that raises InvariantError is replayed from
        its start a round at a time, so the error names the round and client
        that blocks of one would."""
        channel = self.channel
        if channel._last_published:
            raise ConfigError(f"run() needs a fresh system; this one has stepped "
                              f"{channel._last_published} rounds")
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                if self._rounds is not None:
                    self._run_c(self._rows)
                elif not self._single:
                    self._run_blocks()
                else:
                    self._run_single()
            except InvariantError:  # a model's norm overflowed; a loss may have done so first
                done = channel._last_published
                check_finite(squared_loss(self.prediction[:done], self.label[:done]))
                raise
        return RunResult(self.prediction, self.label, self.x_global, self.x_local, self.wg,
                         list(self.wl), self.channel.fetch_counts)

    def _run_blocks(self) -> None:
        channel = self.channel
        full, rest = divmod(self._rows, self.block)
        for n in [self.block] * full + [rest] * (rest > 0):
            saved = (self.wg.copy(), self.wl.copy()) if n > 1 else None  # a replay's start
            try:
                self._advance(n)
            except InvariantError:
                if saved is None:
                    raise
                self.wg[:], self.wl[:] = saved
                channel.rewind()
                for _ in range(n):
                    self.step()


def block_length(delays: DelayConfig, variant: str = "aligned") -> int:
    """Rounds run() advances at once: under the aligned rule a block of L =
    min_i min(beta_i + 1, alpha_i + beta_i) rounds fetches only global models
    published before it and steps the clients only on residuals priced
    before it (see the module doc); 1 for a zero round trip and for the
    other variants."""
    if variant != "aligned":
        return 1
    return max(1, min(min(b + 1, a + b) for a, b in zip(delays.alpha, delays.beta)))


class SgdSystem(RoundSystem):
    """The delayed-gradient learner (see the module doc): a client step
    fetches, steps and predicts every client; a server step takes one
    projected step per round on the clients' arrived rows."""

    def __init__(self, streams, delays: DelayConfig, hyper: HyperParams, *,
                 variant: str = "aligned", init_global: np.ndarray | None = None,
                 init_locals: Sequence[np.ndarray] | None = None):
        if variant not in VARIANTS:
            raise ConfigError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
        super().__init__(streams, delays, hyper, init_global=init_global, init_locals=init_locals)
        self.block = block = block_length(delays, variant)
        clients, b = delays.clients, self.label.shape[2]
        # the features the gradients read: without the batch axis at b = 1
        self._xg, self._xl = (x[:, :, 0] if b == 1 else x for x in (self.x_global, self.x_local))
        self._batch = b
        # zeros: a client not live yet gets a gradient, unused, from a row no
        # round may have written yet
        self.residual = np.zeros(self.label.shape)
        self.local_prediction = np.empty(self.label.shape) if variant == "misaligned" else None
        self.variant = variant
        self.eta_global = hyper.eta_global
        self.eta_local = np.array([[hyper.eta_for(i, clients)] for i in range(clients)])
        self._aligned = variant == "aligned"
        lags = delays.round_trips if self._aligned else (0,) * clients
        self._history = Lag(lags, self._rows)
        self._fresh = self._aligned and min(lags) == 0
        # the local models after each round of a block of several price its rows (aligned)
        self._wl_after = np.empty((min(block, self._rows), *self.wl.shape))
        self._single = self._single and self._aligned
        # the C round, which steps the models in place and writes the channel's history
        self._rounds = None if native.LOOPS is None or not self._aligned or b != 1 else (
            native.rounds(self._xg, self._xl, self.label[:, :, 0], self.prediction[:, :, 0],
                          self.residual[:, :, 0], self.channel._history, self.wg, self.wl,
                          fetch=self.channel._fetch, alpha=delays.alpha, lag=lags,
                          eta_local=self.eta_local[:, 0], eta_global=float(self.eta_global),
                          radius=float(self.radius)))

    def _run_single(self) -> None:
        """Every round of one client at zero delay and batch size 1, the
        rows x[t, 0, 0] read by index: the client steps on its residual at
        the fetch wg and predicts, and the server steps on the new residual.
        Residuals and predictions are Python floats. Leaves the models in
        force and the round count, and raises the InvariantError of a model
        that failed, as the C round does."""
        xg_rows, xl_rows, prediction = self._xg[:, 0], self._xl[:, 0], self.prediction[:, 0, 0]
        wg, wl, radius = self.wg, self.wl[0], self.radius
        eta_g, eta_l, zero = map(np.array, (float(self.eta_global), self.eta_local[0, 0], 0.0))
        done, status = self._rows, native.OK
        for t, y in enumerate(self.label[:, 0, 0].tolist()):
            xg, xl = xg_rows[t], xl_rows[t]
            gp = float(xg.dot(wg)) + 0.0  # `@`'s bits at d = 1 too (see the module doc)
            r = gp + float(xl.dot(wl)) - y
            try:
                wl = project_ball(wl - eta_l * ((2.0 * r) * xl), radius)
            except InvariantError:
                done, status = t + 1, native.LOCAL_NOT_FINITE
                break
            p = prediction[t] = gp + float(xl.dot(wl))
            r = p - y
            try:
                wg = project_ball(wg - eta_g * (zero + (2.0 * r) * xg), radius)
            except InvariantError:
                done, status = t + 1, native.GLOBAL_NOT_FINITE
                break
        self.wg[:], self.wl[0], self.channel._last_published = wg, wl, done
        if status:
            raise _failure(status, done, 0)

    def _client_step(self, rows, fetched: np.ndarray, n: int) -> None:
        xg, xl, y = self.x_global[rows], self.x_local[rows], self.label[rows]
        gp = np.vecdot(xg, fetched[..., None, :])
        if self._aligned:  # step, then predict with the stepped local models
            if self._fresh:  # a zero round trip (a block of one) steps on its pre-step residual
                self.residual[rows] = gp + np.vecdot(xl, self.wl[:, None, :]) - y
            lp = np.vecdot(xl, self._local_steps(n)[..., None, :])
        else:
            lp = np.vecdot(xl, self.wl[:, None, :])
        np.add(gp, lp, out=self.prediction[rows])
        np.subtract(self.prediction[rows], y, out=self.residual[rows])
        if self.local_prediction is not None:
            self.local_prediction[rows] = lp
        if not self._aligned:  # the other variants step on the residual just stored
            self._local_steps(1)

    def _gradients(self, r: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Batch-mean gradients (..., P, d) from residuals (..., P, b) and
        features (..., P, b, d), or (..., P, d) at b = 1."""
        if self._batch == 1:
            return (2.0 * r) * x
        return np.add.reduce((2.0 * r)[..., None] * x, axis=-2) / self._batch

    def _local_steps(self, n: int) -> np.ndarray:
        """Step every live client through the open block's n rounds; returns
        the local models after each of them (after the one round if n is 1)."""
        wl = self.wl
        t = self.channel._last_published - n + 1
        due = self._history.block(t, n)
        out = None if n == 1 else self._wl_after[:n]
        if due is None:
            if n == 1:
                return wl
            out[:] = wl
            return out
        first, index, live = due
        if first:
            out[:first] = wl
        steps = self.eta_local * self._gradients(self.residual[index], self._xl[index])
        if n == 1:
            steps, live = (steps,), (None if live is None else (live,))
        radius, k, step = self.radius, first, None
        try:
            for k, step in enumerate(steps, first):
                if live is None:
                    wl = project_ball(wl - step, radius)
                else:  # per-client warm-up: only the live clients step
                    who = np.flatnonzero(live[k - first])
                    wl = wl.copy()
                    wl[who] = project_ball(wl[who] - step[who], radius)
                if n > 1:
                    out[k] = wl
        except InvariantError:
            v = wl - step
            bad = np.flatnonzero(~np.isfinite(np.vecdot(v, v)))
            if live is not None:
                bad = bad[live[k - first][bad]]
            raise _failure(native.LOCAL_NOT_FINITE, t + k, bad[0]) from None
        self.wl[:] = wl
        return wl if n == 1 else out

    def _server_step(self, n: int, arrivals) -> None:
        first, index, live = arrivals
        r = self.residual[index]
        if self.local_prediction is not None:  # misaligned: a block of one, re-priced at wg
            r = np.vecdot(self.x_global[index], self.wg) + self.local_prediction[index] \
                - self.label[index]
        if live is not None:  # clients not live yet add zeros
            r = np.where(live[..., None], r, 0.0)
        grads = self._gradients(r, self._xg[index])
        # equals a `gsum += g` loop over clients from zeros, bit for bit, per round
        gsum = 0.0 + (np.add.accumulate(grads, axis=-2)[..., -1, :] if grads.shape[-2] > 1
                      else grads[..., 0, :])
        steps = self.eta_global * gsum
        out, wg = self.channel.after, self.wg
        if first:
            out[:first] = wg
        radius, k = self.radius, first
        try:
            for k, step in enumerate((steps,) if n == 1 else steps, first):
                wg = out[k] = project_ball(wg - step, radius)
        except InvariantError:
            t = self.channel._last_published - n + 1 + k
            raise _failure(native.GLOBAL_NOT_FINITE, t, -1) from None
        self.wg[:] = wg


def build_streams(dataset, rounds: int, seed: int, batch_size: int = 1):
    """Every client's stream as blocks x_global (N, P, b, dg), x_local
    (N, P, b, dl) and label (N, P, b), N = rounds / b: round-major views of
    client-major arrays, so each client's whole stream stays contiguous. Every
    client's feature blocks must have client 0's shapes."""
    if rounds % batch_size != 0:
        raise ConfigError(f"batch size {batch_size} does not divide horizon {rounds}")
    clients = dataset.n_clients
    for i in range(clients):
        block = dataset.stream_block(i, rounds, seed)
        if i == 0:
            out = [np.empty((clients, *a.shape)) for a in block]
            shapes = block[0].shape, block[1].shape
        elif (block[0].shape, block[1].shape) != shapes:
            raise ConfigError(f"client {i}'s feature blocks have shapes {block[0].shape}, "
                              f"{block[1].shape}; client 0's have {shapes[0]}, {shapes[1]}")
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
