"""Comparison schemes sharing the delayed-gradient engine.

Independent re-routes every feature into the local block (empty global
block, no effective communication, zero delay by construction); Central
re-routes everything into the global block (empty local block), so the
server does all the learning over delay-subjected uploads and clients
predict with the delayed global model alone. Both are literally the
residual engine on a transformed dataset: run_fedres_sgd on
independent_view(dataset) (with zero delays) or central_view(dataset), so
any engine fix reaches all three schemes identically.
"""

from __future__ import annotations

import numpy as np


class _RoutedView:
    """Dataset view with features re-routed between the two blocks."""

    def __init__(self, base, mode: str):
        if mode not in ("independent", "central"):
            raise ValueError(mode)
        self.base = base
        self.mode = mode

    @property
    def n_clients(self) -> int:
        return self.base.n_clients

    def _route(self, xg: np.ndarray, xl: np.ndarray, y: np.ndarray):
        empty = np.zeros((len(y), 0))
        if self.mode == "independent":
            return empty, np.concatenate([xg, xl], axis=1), y
        return xg, empty, y

    def stream_block(self, client_id, rounds, seed):
        return self._route(*self.base.stream_block(client_id, rounds, seed))

    def test_sets(self):
        return [self._route(*tests) for tests in self.base.test_sets()]


def independent_view(dataset) -> _RoutedView:
    return _RoutedView(dataset, "independent")


def central_view(dataset) -> _RoutedView:
    return _RoutedView(dataset, "central")
