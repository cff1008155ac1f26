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

Solves run in O(d^3) per round from sums over the archive: the frozen
variant accumulates its residual right-hand sides once per sample, while
the re-applying variant keeps per-client cross blocks and recombines them
with the newest counterpart each round.

Array layout (ErmSystem, P clients):
  client side  wl (P, dl); sums over the rows sent so far of gram = xl xl^T
               (P, dl, dl), ly = y xl (P, dl) and cross = xl xg^T (P, dl, dg);
               frozen_rhs (P, dl) = sum (y - fetched . xg) xl with the fetch
               of each sample's round;
  server side  wg (dg,); sums over the arrived rows of gram_g = xg xg^T
               (dg, dg) over every client, gy = y xg (P, dg) and cross_g =
               xg xl^T (P, dg, dl); frozen_rhs_g (dg,) = sum (y - local
               prediction) xg;
  round-indexed rows (N, P, ...) of the stream blocks, the predictions and
  the local predictions, plus (erm only) the local model each client sent.
gram, ly, cross, gram_g, gy and cross_g depend only on the streams (the
frozen variant keeps only gram and gram_g). Each side's _PrefixSums builds
them BLOCK rows at a time: a table holds the sum carried from the previous
block followed by the block's terms, and one np.add.accumulate turns it
into every prefix of the block; gram_g is accumulated over the flattened
(row, client) axis and read every P-th entry. The client reads rows
< t - 1 in round t and the server the rows that have arrived, alpha rounds
behind, so each side has its own cursor and carry. The frozen right-hand
sides depend on predictions and stay running sums.

A round publishes wg, takes every client's fetch with channel.fetch_round(t),
solves all P local models with one stacked solve_gram call, predicts, and
then asks channel.exchange(t) which round's rows reach the server: an
uplink is a row index, never an object. The server reads the arrived rows'
labels and either the sent local models (erm) or local predictions
(fictitious), then re-solves wg.

Bits: every sum adds one row at a time (on the server one client at a
time, in ascending order), as the per-client learner this replaced did,
through np.add.accumulate; stacked products (cross @ fetched, np.vecdot,
outer products x[..., :, None] * x[..., None, :]) and the stacked
solve_gram equal their per-client forms. The results equal the
per-client formulas exactly (tests/data/sgd_characterization.json).

Delays must be uniform across clients here, so every round after the first
alpha delivers one row of every client; the delayed-gradient learner
handles heterogeneous delays. There is no explicit-rebuild mode: the
explicit-archive oracle the fast path is checked against lives with the
tests.
"""

from __future__ import annotations

from functools import partial
from typing import Sequence

import numpy as np

from .channel import DelayConfig, DelayedChannel, as_delay_config
from .core import HyperParams
from .engine import build_streams
from .errors import ConfigError
from .results import RunResult
from .solver import solve_gram

VARIANTS = ("erm", "fictitious")
BLOCK = 128  # stream rows per prefix-sum table: memory is O(BLOCK), not O(rounds)


class _PrefixSums:
    """Sums over stream rows [0, n) of terms that depend only on the data,
    for n >= 1 that never decreases; built BLOCK rows at a time.

    terms(x_global, x_local, label) gets a block of rows of the streams and
    returns one array per sum, with the rows on the leading axis (flattened
    with `stride` entries per row if need be).
    """

    def __init__(self, terms, streams):
        self.terms, self.streams, self.rows = terms, streams, len(streams[0])
        self.start = self.stop = 0  # the tables cover prefixes n in [start, stop]
        self.tables, self.strides = [], []

    def upto(self, n: int) -> list[np.ndarray]:
        while n > self.stop:
            self._next_block()
        k = n - self.start
        return [table[k * stride] for table, stride in zip(self.tables, self.strides)]

    def _next_block(self) -> None:
        lo, hi = self.stop, min(self.stop + BLOCK, self.rows)
        terms = self.terms(*(a[lo:hi] for a in self.streams))
        carry = [table[-1] for table in self.tables] or [np.zeros(t.shape[1:]) for t in terms]
        self.strides = [len(t) // (hi - lo) for t in terms]
        self.tables = [_accumulate(c, t) for c, t in zip(carry, terms)]
        self.start, self.stop = lo, hi


def _client_terms(erm: bool, xg, xl, y) -> tuple:
    gram = _outer(xl, xl)
    return (gram, y[..., None] * xl, _outer(xl, xg)) if erm else (gram,)


def _server_terms(erm: bool, xg, xl, y) -> tuple:
    dg = xg.shape[-1]
    gram_g = _outer(xg, xg).reshape(-1, dg, dg)  # (row, client) flattened: clients in order
    return (gram_g, y[..., None] * xg, _outer(xg, xl)) if erm else (gram_g,)


def _accumulate(carry: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """carry, carry + rows[0], carry + rows[0] + rows[1], ...: one row at a time."""
    table = np.concatenate((carry[None], rows))
    return np.add.accumulate(table, axis=0, out=table)


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a[..., :, None] * b[..., None, :]


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
        # module functions, not bound methods: no reference cycle keeps a
        # finished system's arrays alive until the garbage collector runs
        streams = (self.x_global, self.x_local, self.label)
        self.client_sums = _PrefixSums(partial(_client_terms, self.erm), streams)
        self.server_sums = _PrefixSums(partial(_server_terms, self.erm), streams)
        self.frozen_rhs = np.zeros((clients, dl))
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
            gram, *rest = self.client_sums.upto(row)
            if self.erm:
                ly, cross = rest
                rhs = ly - cross @ fetched
            else:
                rhs = self.frozen_rhs
            self.wl = solve_gram(gram, rhs, self.radius)
        gp = np.vecdot(xg, fetched)
        lp = self.local_prediction[row] = np.vecdot(xl, self.wl)
        self.prediction[row] = gp + lp
        if self.erm:
            self.sent_wl[row] = self.wl
        else:
            self.frozen_rhs += (y - gp)[:, None] * xl
        self._server_step(t)

    def _server_step(self, t: int) -> None:
        index, _ = self.channel.exchange(t)
        if index is None:
            return
        gram_g, *rest = self.server_sums.upto(index + 1)
        if self.erm:
            gy, cross_g = rest
            terms = gy - (cross_g @ self.sent_wl[index][:, :, None])[:, :, 0]
            rhs = 0.0 + np.add.accumulate(terms, axis=0)[-1]  # a `+=` loop from zeros, bit for bit
        else:
            xg, y = self.x_global[index], self.label[index]
            terms = (y - self.local_prediction[index])[:, None] * xg
            rhs = self.frozen_rhs_g = _accumulate(self.frozen_rhs_g, terms)[-1]
        self.wg = solve_gram(gram_g, rhs, self.radius)


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
