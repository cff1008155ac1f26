"""Comparison schemes sharing the delayed-gradient engine.

Independent re-routes every feature into the local block (empty global
block, no effective communication, zero delay by construction); Central
re-routes everything into the global block (empty local block), so the
server does all the learning over delay-subjected uploads and clients
predict with the delayed global model alone. Both are literally the
residual engine on a transformed dataset, so any engine fix reaches all
three schemes identically.
"""

from __future__ import annotations

import numpy as np

from .core import HyperParams
from .datagen import SampleRows, rows_block
from .engine import run_fedres_sgd
from .results import RunResult


class _RoutedView:
    """Dataset view with features re-routed between the two blocks."""

    def __init__(self, base, mode: str):
        self.base = base
        self.mode = mode
        if mode == "independent":
            self.d_global = 0
            self.d_locals = [base.d_global + dl for dl in base.d_locals]
        elif mode == "central":
            self.d_global = base.d_global
            self.d_locals = [0] * base.n_clients
        else:
            raise ValueError(mode)

    @property
    def n_clients(self) -> int:
        return self.base.n_clients

    def _route(self, xg: np.ndarray, xl: np.ndarray, y: np.ndarray):
        empty = np.zeros((len(y), 0))
        if self.mode == "independent":
            return empty, np.concatenate([xg, xl], axis=1), y
        return xg, empty, y

    def stream_block(self, client_id, rounds, rng):
        return self._route(*self.base.stream_block(client_id, rounds, rng))

    def test_sets(self):
        return [SampleRows(*self._route(*rows_block(tests))) for tests in self.base.test_sets()]


def independent_view(dataset) -> _RoutedView:
    return _RoutedView(dataset, "independent")


def central_view(dataset) -> _RoutedView:
    return _RoutedView(dataset, "central")


def run_independent(dataset, hyper: HyperParams, rounds: int, seed: int,
                    *, batch_size: int = 1) -> RunResult:
    """Per-client SGD on the full feature set; no communication."""
    return run_fedres_sgd(
        independent_view(dataset), 0, hyper, rounds, seed, batch_size=batch_size
    )


def run_central(dataset, delays, hyper: HyperParams, rounds: int, seed: int,
                *, batch_size: int = 1) -> RunResult:
    """Server-side SGD on global features over the aggregated, delayed uploads."""
    return run_fedres_sgd(
        central_view(dataset), delays, hyper, rounds, seed, batch_size=batch_size
    )
