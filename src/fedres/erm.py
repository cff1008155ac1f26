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
frozen variant keeps only gram and gram_g). Each side's _prefix_sums
generator builds them BLOCK rows at a time: a table holds the sum carried
from the previous block followed by the block's terms, and one
np.add.accumulate turns it into every prefix of the block; gram_g is
accumulated over the flattened (row, client) axis and read every P-th
entry. Both sides take the prefixes in order, one per round: the client
the rows < t - 1 in round t (from round 2 on), the server one more row of
every client per arrival, alpha rounds behind. The frozen right-hand sides
depend on predictions and stay running sums.

ErmSystem runs on engine.RoundSystem's round skeleton. A round opens on
the channel and gets every client's fetch back, solves all P local models
with one stacked solve_gram call and predicts; then channel.exchange()
says which round's rows reach the server: an uplink is a row index, never
an object. The server reads the arrived rows' labels and either the sent
local models (erm) or local predictions (fictitious), then re-solves wg
into the channel's row of the round.

Bits: every sum adds one row at a time (on the server one client at a
time, in ascending order), as the per-client learner this replaced did,
through np.add.accumulate; stacked products (cross @ fetched, np.vecdot,
outer products x[..., :, None] * x[..., None, :]) and the stacked
solve_gram equal their per-client forms. The results equal the
per-client formulas exactly (tests/data/sgd_characterization.json).
A Gram block that the base ridge leaves singular is solved at a doubled
ridge (solver._ridge_solve), on the stacked path and in the single-client
loop alike, so a singular block ends no run.

One client at zero delay (the three-way protocol's shape) runs in C
wherever fedres.native takes the rows, under SGD's C-round contract (see
fedres.engine): _loops.c's fedres_erm keeps running sums of the same terms
in the same order, solves through the OpenBLAS dgesv that NumPy's solve1
calls (the bisection and the doubled ridge included), takes the
(d, d).(d,) products through the dgemv or ddot that the stacked path's
np.matmul picks for the shape, and writes what the stacked path writes.
Without the library run() takes _run_single, the same loop in Python and
the tests' reference: each round reads the rows by index, solves at the
fetch wg on unstacked (d, d) sums, and the server solves on the row just
sent. It keeps the predictions as Python floats. Its bits are the stacked
path's: the unstacked sums add the same rows in the same order, a (d, d)
solve_gram makes the same LAPACK call as a stack of one, and `.dot`
products and the 0-d `0.0 +` keep `@`'s bits (see fedres.engine); the
(d, d).(d,) products, bare at d = 1, are subtracted only from prefix sums,
which are never -0.0.

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

from . import native
from .channel import DelayConfig
from .core import HyperParams
from .engine import RoundSystem
from .errors import ConfigError
from .results import RunResult
from .solver import solve_gram

VARIANTS = ("erm", "fictitious")
BLOCK = 128  # stream rows per prefix-sum table: memory is O(BLOCK), not O(rounds)


def _prefix_sums(terms, streams):
    """The sums over stream rows [0, 1), [0, 2), ... in turn, one tuple per
    prefix, of terms that depend only on the data; its readers take every
    prefix in order, one per round. Built BLOCK rows at a time: a table
    holds the sum carried from the previous block followed by the block's
    terms, and one np.add.accumulate turns it into every prefix of the block.

    terms(x_global, x_local, label) gets a block of rows of the streams and
    returns one array per sum, with the rows on the leading axis (flattened
    with the same number of entries per row if need be: those are added in
    turn, and a prefix ends after a row's last entry).
    """
    # zeros of each sum's shape, from the terms of no rows: no block's terms
    # outlive its tables
    carry = [np.zeros(t.shape[1:]) for t in terms(*(a[:0] for a in streams))]
    for lo in range(0, len(streams[0]), BLOCK):
        rows = [a[lo:lo + BLOCK] for a in streams]
        n = len(rows[0])
        tables = [_accumulate(c, t)[len(t) // n::len(t) // n] for c, t in zip(carry, terms(*rows))]
        carry = [table[-1] for table in tables]
        yield from zip(*tables)


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


class ErmSystem(RoundSystem):
    """The exact learners on the round clock, over whole streams (the
    (N, P, 1, ...) blocks of build_streams); one system per run."""

    def __init__(self, streams, delays: DelayConfig, hyper: HyperParams, *,
                 variant: str = "erm", init_global: np.ndarray | None = None,
                 init_locals: Sequence[np.ndarray] | None = None):
        if variant not in VARIANTS:
            raise ConfigError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
        if not delays.is_uniform:
            raise ConfigError("exact-solve learners require uniform per-client delays")
        super().__init__(streams, delays, hyper, init_global=init_global, init_locals=init_locals)
        if self.label.shape[2] != 1:
            raise ConfigError("exact-solve learners do not support batching")
        # one sample per round: views of the blocks and predictions without the batch axis
        self.xg, self.xl, self.y, self.pred = [a[:, :, 0] for a in (*streams, self.prediction)]
        self.local_prediction = np.empty(self.y.shape)
        self.erm = variant == "erm"
        self.sent_wl = np.empty(self.xl.shape) if self.erm else None
        # module functions, not bound methods: no reference cycle keeps a
        # finished system's arrays alive until the garbage collector runs
        rows = self.xg, self.xl, self.y
        self.client_sums = _prefix_sums(partial(_client_terms, self.erm), rows)
        self.server_sums = _prefix_sums(partial(_server_terms, self.erm), rows)
        self.frozen_rhs = np.zeros(self.wl.shape)
        self.frozen_rhs_g = np.zeros(self.wg.shape)
        # the C round, which solves the models in place and writes the channel's history
        self._rounds = None if native.LOOPS is None or not self._single else native.exact(
            self.xg, self.xl, self.y, self.pred, self.channel._history, self.wg, self.wl,
            erm=self.erm, radius=float(self.radius))

    def _client_step(self, row: int, fetched: np.ndarray, n: int) -> None:
        xg, xl, y = self.xg[row], self.xl[row], self.y[row]
        if row:  # every archive holds a sample
            gram, *rest = next(self.client_sums)
            if self.erm:
                ly, cross = rest
                rhs = ly - cross @ fetched
            else:
                rhs = self.frozen_rhs
            self.wl[:] = solve_gram(gram, rhs, self.radius)
        gp = np.vecdot(xg, fetched)
        lp = self.local_prediction[row] = np.vecdot(xl, self.wl)
        self.pred[row] = gp + lp
        if self.erm:
            self.sent_wl[row] = self.wl
        else:
            self.frozen_rhs += (y - gp)[:, None] * xl

    def _server_step(self, n: int, arrivals) -> None:
        # one row of every client per round, in order: blocks of one round, uniform delays
        index = arrivals[1]
        gram_g, *rest = next(self.server_sums)
        if self.erm:
            gy, cross_g = rest
            terms = gy - (cross_g @ self.sent_wl[index][:, :, None])[:, :, 0]
            rhs = 0.0 + np.add.accumulate(terms, axis=0)[-1]  # a `+=` loop from zeros, bit for bit
        else:
            xg, y = self.xg[index], self.y[index]
            terms = (y - self.local_prediction[index])[:, None] * xg
            rhs = self.frozen_rhs_g = _accumulate(self.frozen_rhs_g, terms)[-1]
        self.wg[:] = self.channel.after[0] = solve_gram(gram_g, rhs, self.radius)

    def _run_single(self) -> None:
        """Every round of one client at zero delay, on unstacked sums and
        solves: the client solves at the fetch wg and predicts, and the
        server solves on the row just sent. Predictions are Python floats.
        Leaves the final models and the round count, as the C round does."""
        rows = xg_rows, xl_rows, labels = tuple(a[:, 0] for a in (self.xg, self.xl, self.y))
        pred = self.pred[:, 0]
        wg, wl, radius, erm, zero = self.wg, self.wl[0], self.radius, self.erm, np.array(0.0)
        frozen_rhs, frozen_rhs_g = np.zeros(wl.shape), np.zeros(wg.shape)  # fictitious only
        # (dl, dl) sums and not (1, dl, dl): the same rows added in the same order
        client_sums = _prefix_sums(partial(_client_terms, erm), rows)
        server_sums = _prefix_sums(partial(_server_terms, erm), rows)
        for t, y, (gram_g, *rest_g) in zip(range(self._rows), labels.tolist(), server_sums):
            xg, xl = xg_rows[t], xl_rows[t]
            if t:  # every archive holds a sample
                gram, *rest = next(client_sums)
                if erm:
                    ly, cross = rest
                    rhs = ly - cross.dot(wg)
                else:
                    rhs = frozen_rhs
                wl = solve_gram(gram, rhs, radius)
            gp = float(xg.dot(wg)) + 0.0  # `@`'s bits at d = 1 too (see the module doc)
            lp = float(xl.dot(wl)) + 0.0
            pred[t] = gp + lp
            if erm:
                gy, cross_g = rest_g
                rhs = zero + (gy - cross_g.dot(wl))
            else:
                frozen_rhs += (y - gp) * xl
                rhs = frozen_rhs_g = frozen_rhs_g + (y - lp) * xg
            wg = solve_gram(gram_g, rhs, radius)
        self.wg[:], self.wl[0], self.channel._last_published = wg, wl, self._rows


def run_fedres_erm(dataset, delays, hyper: HyperParams, rounds: int, seed: int, *,
                   init_global=None, init_locals=None) -> RunResult:
    """Re-applying exact learner: newest counterparts hit the whole archive."""
    return ErmSystem.build(dataset, delays, hyper, rounds, seed, variant="erm",
                           init_global=init_global, init_locals=init_locals).run()


def run_fictitious_play(dataset, delays, hyper: HyperParams, rounds: int, seed: int, *,
                        init_global=None, init_locals=None) -> RunResult:
    """Frozen-counterpart variant: each archived sample keeps the model pair
    of its own round; cheap to communicate, prone to locking up."""
    return ErmSystem.build(dataset, delays, hyper, rounds, seed, variant="fictitious",
                           init_global=init_global, init_locals=init_locals).run()
