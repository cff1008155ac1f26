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
recombines them with the newest counterpart each round. A slow
explicit-rebuild mode recomputes every right-hand side from the raw
archive with one shared per-sample loop; the two variants then differ
only in which counterpart value that loop reads, which is what the
stale-models-only equivalence test exercises.

Delays must be uniform across clients here; the delayed-gradient learner
handles heterogeneous delays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channel import DelayConfig, DelayedChannel, as_delay_config
from .core import HyperParams, ResidualMessage, Sample
from .errors import ConfigError, InvariantError
from .results import RunResult
from .engine import build_streams
from .solver import solve_gram

VARIANTS = ("erm", "fictitious")


@dataclass(frozen=True)
class ErmUplink:
    """Full-sample upload of the re-applying variant: z_t and the local model."""

    sample: Sample
    local_model: np.ndarray
    client_id: int
    sent_at: int


class ErmClient:
    def __init__(self, client_id, d_global, d_local, radius, variant, init_local=None,
                 exact_rebuild=False):
        self.client_id = client_id
        self.radius = radius
        self.variant = variant
        self.exact_rebuild = exact_rebuild
        self.wl = np.zeros(d_local) if init_local is None else np.asarray(init_local, float).copy()
        self.gram = np.zeros((d_local, d_local))  # sum xl xl^T
        self.ly = np.zeros(d_local)  # sum y xl
        self.cross = np.zeros((d_local, d_global))  # sum xl xg^T
        self.frozen_rhs = np.zeros(d_local)  # sum (y - g_s . xg) xl, frozen g_s
        self.archive: list[tuple[Sample, np.ndarray]] = []  # (sample, fetched global at arrival)

    def _rhs(self, fetched: np.ndarray) -> np.ndarray:
        if self.exact_rebuild:
            rhs = np.zeros_like(self.frozen_rhs)
            for sample, frozen_g in self.archive:
                g_ref = fetched if self.variant == "erm" else frozen_g
                rhs += (sample.y - float(g_ref @ sample.x_global)) * sample.x_local
            return rhs
        if self.variant == "erm":
            return self.ly - self.cross @ fetched
        return self.frozen_rhs

    def round(self, t: int, fetched: np.ndarray, sample: Sample) -> tuple[float, ErmUplink | ResidualMessage]:
        """Solve, predict, archive; returns (prediction, uplink message)."""
        if self.archive:
            self.wl = solve_gram(self.gram, self._rhs(fetched), self.radius)
        lp = float(self.wl @ sample.x_local)
        pred = float(fetched @ sample.x_global) + lp
        self.archive.append((sample, fetched))
        self.gram += sample.x_local[:, None] * sample.x_local
        self.ly += sample.y * sample.x_local
        self.cross += sample.x_local[:, None] * sample.x_global
        self.frozen_rhs += (sample.y - float(fetched @ sample.x_global)) * sample.x_local
        if self.variant == "erm":
            msg = ErmUplink(sample, self.wl, self.client_id, t)
        else:
            msg = ResidualMessage(sample.x_global, lp, sample.y, self.client_id, t)
        return pred, msg


class ErmServer:
    def __init__(self, clients, d_global, d_locals, radius, variant, init_global=None,
                 exact_rebuild=False):
        self.radius = radius
        self.variant = variant
        self.exact_rebuild = exact_rebuild
        self.wg = np.zeros(d_global) if init_global is None else np.asarray(init_global, float).copy()
        self.gram = np.zeros((d_global, d_global))  # sum over everything of xg xg^T
        self.gy = [np.zeros(d_global) for _ in range(clients)]  # per client: sum y xg
        self.cross = [np.zeros((d_global, d_locals[i])) for i in range(clients)]  # sum xg xl^T
        self.latest_wl = [np.zeros(d_locals[i]) for i in range(clients)]
        self.frozen_rhs = np.zeros(d_global)  # sum (y - frozen local pred) xg
        self.count = 0
        self.archive: list[list] = [[] for _ in range(clients)]  # (sample, frozen localpred)

    def _absorb(self, msg) -> None:
        i = msg.client_id
        if isinstance(msg, ErmUplink):
            s, lp = msg.sample, float(msg.local_model @ msg.sample.x_local)
            self.latest_wl[i] = msg.local_model
            self.gy[i] += s.y * s.x_global
            self.cross[i] += s.x_global[:, None] * s.x_local
        else:
            # frozen variant: only the residual triplet travels uplink
            s = Sample(msg.x_global, np.zeros(0), msg.y)
            lp = msg.local_prediction
        self.archive[i].append((s, lp))
        self.gram += s.x_global[:, None] * s.x_global
        self.frozen_rhs += (s.y - lp) * s.x_global
        self.count += 1

    def _rhs(self) -> np.ndarray:
        if self.exact_rebuild:
            rhs = np.zeros_like(self.frozen_rhs)
            for i, entries in enumerate(self.archive):
                for sample, frozen_lp in entries:
                    lp = (
                        float(self.latest_wl[i] @ sample.x_local)
                        if self.variant == "erm"
                        else frozen_lp
                    )
                    rhs += (sample.y - lp) * sample.x_global
            return rhs
        if self.variant == "erm":
            rhs = np.zeros_like(self.frozen_rhs)
            for i in range(len(self.gy)):
                rhs += self.gy[i] - self.cross[i] @ self.latest_wl[i]
            return rhs
        return self.frozen_rhs

    def round(self, t: int, messages: list) -> np.ndarray:
        expected = len(self.gy)
        if messages and len(messages) != expected:
            raise InvariantError(
                f"round {t}: {len(messages)} uplink records, expected all {expected} clients"
            )
        for msg in messages:
            self._absorb(msg)
        if self.count:
            self.wg = solve_gram(self.gram, self._rhs(), self.radius)
        return self.wg


class ErmSystem:
    """Clients, server and channel on one round clock (uniform delays)."""

    def __init__(
        self,
        d_global: int,
        d_locals: Sequence[int],
        delays: DelayConfig,
        hyper: HyperParams,
        *,
        variant: str = "erm",
        init_global: np.ndarray | None = None,
        init_locals: Sequence[np.ndarray] | None = None,
        exact_rebuild: bool = False,
    ):
        if variant not in VARIANTS:
            raise ConfigError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
        if not delays.is_uniform:
            raise ConfigError("exact-solve learners require uniform per-client delays")
        clients = len(d_locals)
        self.server = ErmServer(
            clients, d_global, list(d_locals), hyper.radius, variant, init_global, exact_rebuild
        )
        self.clients = [
            ErmClient(
                i,
                d_global,
                d_locals[i],
                hyper.radius,
                variant,
                None if init_locals is None else init_locals[i],
                exact_rebuild,
            )
            for i in range(clients)
        ]
        self.channel = DelayedChannel(delays, self.server.wg)
        self.t = 0

    def run_round(self, samples: Sequence[Sample]) -> list[float]:
        """One round; returns every client's prediction."""
        t = self.t = self.t + 1
        self.channel.publish_global(t, self.server.wg)
        preds = []
        for client, sample in zip(self.clients, samples):
            fetched = self.channel.fetch_global(client.client_id, t)
            pred, msg = client.round(t, fetched, sample)
            self.channel.uplink_send(client.client_id, t, msg)
            preds.append(pred)
        self.server.round(t, self.channel.uplink_receive(t))
        return preds


def _run(dataset, delays, hyper, rounds, seed, variant, init_global, init_locals, exact_rebuild):
    if rounds < 1:
        raise ConfigError(f"rounds must be >= 1, got {rounds}")
    delays = as_delay_config(delays, dataset.n_clients)
    x_global, x_local, label = build_streams(dataset, rounds, seed)
    system = ErmSystem(
        dataset.d_global,
        dataset.d_locals,
        delays,
        hyper,
        variant=variant,
        init_global=init_global,
        init_locals=init_locals,
        exact_rebuild=exact_rebuild,
    )
    prediction = np.empty(label.shape)
    for t in range(rounds):
        samples = [
            Sample(x_global[t, i, 0], x_local[t, i, 0], float(label[t, i, 0]))
            for i in range(dataset.n_clients)
        ]
        prediction[t, :, 0] = system.run_round(samples)
    return RunResult(
        prediction=prediction,
        label=label,
        x_global=x_global,
        x_local=x_local,
        final_global=system.server.wg,
        final_locals=[c.wl for c in system.clients],
        fetch_counts=system.channel.fetch_counts,
    )


def run_fedres_erm(dataset, delays, hyper: HyperParams, rounds: int, seed: int, *,
                   init_global=None, init_locals=None, exact_rebuild=False) -> RunResult:
    """Re-applying exact learner: newest counterparts hit the whole archive."""
    return _run(dataset, delays, hyper, rounds, seed, "erm", init_global, init_locals,
                exact_rebuild)


def run_fictitious_play(dataset, delays, hyper: HyperParams, rounds: int, seed: int, *,
                        init_global=None, init_locals=None, exact_rebuild=False) -> RunResult:
    """Frozen-counterpart variant: each archived sample keeps the model pair
    of its own round; cheap to communicate, prone to locking up."""
    return _run(dataset, delays, hyper, rounds, seed, "fictitious", init_global, init_locals,
                exact_rebuild)
