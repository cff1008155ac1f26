"""Run records shared by every learner.

A RunResult is columnar and round-major. With N rounds (batch rounds at
b > 1) and P clients: prediction and label (N, P, b); the consumed stream
blocks x_global (N, P, b, dg) and x_local (N, P, b, dl); and loss (N, P),
each (round, client)'s squared loss (batch mean), derived from the first
two. `traces` is a lazy read-only RoundTrace view: its length costs
nothing and a record is built only when read. Building a result raises
InvariantError at the first non-finite loss or final model.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .core import Sample
from .errors import InvariantError


@dataclass(frozen=True)
class RoundTrace:
    """Per-(round, client) record of what the deployed pair did.

    For batched rounds, loss is the batch-aggregated (mean) loss and
    prediction/label/sample hold the b per-sample values as tuples.
    Bandit runs additionally carry the chosen action, the realized reward,
    and the full context set of the round.
    """

    round: int
    client_id: int
    loss: float
    prediction: float | tuple
    label: float | tuple
    sample: Any
    action: int | None = None
    reward: float | None = None
    contexts: tuple | None = None


def squared_loss(prediction: np.ndarray, label: np.ndarray) -> np.ndarray:
    """(N, P) batch-mean squared losses; float_power is libm pow, like ** on floats."""
    sq = np.float_power(label - prediction, 2.0)
    return sq[..., 0] if sq.shape[-1] == 1 else np.mean(sq, axis=-1)


def check_finite(loss: np.ndarray) -> None:
    """InvariantError naming the first (round, client) whose loss is not finite."""
    bad = ~np.isfinite(loss)
    if bad.any():
        n, i = np.unravel_index(int(np.argmax(bad)), loss.shape)
        raise InvariantError(f"non-finite loss at round {n + 1}, client {i}")


@dataclass
class RunResult:
    """One run's columns, final models and fetch counts (see the module doc)."""

    prediction: np.ndarray
    label: np.ndarray
    x_global: np.ndarray
    x_local: np.ndarray
    final_global: np.ndarray
    final_locals: list[np.ndarray]
    fetch_counts: list[int]
    loss: np.ndarray = field(init=False)
    rounds: int = field(init=False)
    clients: int = field(init=False)
    batch_size: int = field(init=False)

    def __post_init__(self):
        self.rounds, self.clients, self.batch_size = self.prediction.shape
        with np.errstate(over="ignore", invalid="ignore"):
            self.loss = squared_loss(self.prediction, self.label)
        check_finite(self.loss)
        if not all(np.isfinite(w).all() for w in [self.final_global, *self.final_locals]):
            raise InvariantError("non-finite final model")

    @property
    def traces(self) -> "TraceView":
        return TraceView(self)

    def mean_loss(self) -> float:
        return float(np.mean(self.loss.ravel()))

    def terminal_mean_loss(self, fraction: float = 0.1) -> float:
        """Mean loss over the trailing fraction of rounds, all clients."""
        cutoff = self.rounds - max(1, int(self.rounds * fraction))
        return float(np.mean(self.loss[cutoff:].ravel()))


class TraceView(Sequence):
    """The records of a RunResult as RoundTraces, round-major, built on read."""

    def __init__(self, result: RunResult):
        self.result = result

    def __len__(self) -> int:
        return self.result.loss.size

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[j] for j in range(len(self))[k]]
        r = self.result
        n, i = divmod(range(len(self))[k], r.clients)
        xg, xl, y, pred = r.x_global[n, i], r.x_local[n, i], r.label[n, i], r.prediction[n, i]
        samples = tuple(Sample(xg[j], xl[j], float(y[j])) for j in range(len(y)))
        if len(samples) == 1:
            return RoundTrace(n + 1, i, float(r.loss[n, i]), float(pred[0]), float(y[0]),
                              samples[0])
        return RoundTrace(n + 1, i, float(r.loss[n, i]), tuple(pred.tolist()),
                          tuple(y.tolist()), samples)
