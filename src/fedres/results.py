"""Run records shared by every learner.

A RunResult is columnar and round-major. With N rounds (batch rounds at
b > 1) and P clients: prediction and label (N, P, b); the consumed stream
blocks x_global (N, P, b, dg) and x_local (N, P, b, dl); and loss (N, P),
each (round, client)'s squared loss (batch mean), derived from the first
two. The metrics read these columns; `traces` is the loss column flattened
to record order. Building a result raises InvariantError at the first
non-finite loss or final model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvariantError


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
        if not (np.isfinite(self.final_global).all() and np.isfinite(self.final_locals).all()):
            raise InvariantError("non-finite final model")

    @property
    def traces(self) -> np.ndarray:
        """Every record's loss in record order; kept while perfbench counts len(traces)."""
        return self.loss.reshape(-1)

    def mean_loss(self) -> float:
        return float(np.mean(self.loss.ravel()))

    def terminal_mean_loss(self) -> float:
        """Mean loss over the trailing tenth of rounds (at least one), all clients."""
        cutoff = self.rounds - max(1, int(self.rounds * 0.1))
        return float(np.mean(self.loss[cutoff:].ravel()))

