"""The round clock: fixed per-client delays kept as ring-buffer index
arithmetic.

Uplink: the message client i sends at round t reaches the server at round
t + alpha[i]. Downlink: the server publishes one global-model snapshot per
round before any client fetches; client i's fetch at round t returns the
snapshot of round t - beta[i], with every round index <= 0 resolving to
the initial model (warmup convention).

One path serves whole rounds. publish_global(wg) opens the next round and
returns every client's fetch; exchange() says which of the learner's
round-indexed rows (a ring of `ring` rows) reach the server in it. Neither
takes a round: the count of published rounds is the run's only round
counter, and fetch counts and in-flight messages derive from it.
Snapshots live in a (max(beta) + 1, d) ring whose rows all start as the
initial model; no fetch reaches back further, so rounds <= 0 find it
intact. A channel serves one single-threaded run.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral
from typing import Sequence

import numpy as np

from .errors import ConfigError, InvariantError

ALL = slice(None)
_INT = (Integral, np.bool_)  # bools pass this screen only to be rejected by _delay


def _delay(value) -> int:
    """A delay as a plain int: integers (NumPy's too) pass, bools and the rest do not."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, Integral) or value < 0:
        raise ConfigError(f"delays must be nonnegative integers, got {value!r}")
    return int(value)


def _side(value, clients: int) -> tuple:
    """One delay direction: an integer for every client, or one per client."""
    if isinstance(value, _INT):
        return (_delay(value),) * clients
    if isinstance(value, (Sequence, np.ndarray)) and not isinstance(value, str):
        return tuple(value)
    raise ConfigError(f"a delay must be an integer or a per-client sequence, got {value!r}")


@dataclass(frozen=True)
class DelayConfig:
    """Per-client uplink (alpha) and downlink (beta) delays, in rounds."""

    alpha: tuple[int, ...]
    beta: tuple[int, ...]

    def __post_init__(self):
        if not all(isinstance(side, (Sequence, np.ndarray)) for side in (self.alpha, self.beta)):
            raise ConfigError(f"alpha and beta must be per-client sequences, got {self!r}")
        alpha, beta = tuple(self.alpha), tuple(self.beta)
        if len(alpha) != len(beta):
            raise ConfigError("alpha and beta must have one entry per client")
        object.__setattr__(self, "alpha", tuple(_delay(a) for a in alpha))
        object.__setattr__(self, "beta", tuple(_delay(b) for b in beta))

    @classmethod
    def uniform(cls, clients: int, alpha: int = 0, beta: int = 0) -> "DelayConfig":
        return cls(alpha=(alpha,) * clients, beta=(beta,) * clients)

    @property
    def clients(self) -> int:
        return len(self.alpha)

    @property
    def round_trips(self) -> tuple[int, ...]:
        return tuple(a + b for a, b in zip(self.alpha, self.beta))

    @property
    def is_uniform(self) -> bool:
        return len(set(self.alpha)) <= 1 and len(set(self.beta)) <= 1

    def batched(self, batch_size: int) -> "DelayConfig":
        """Delays converted to batch rounds: ceil(alpha/b), ceil(beta/b)."""
        if batch_size == 1:
            return self
        b = batch_size
        return DelayConfig(
            alpha=tuple(-(-a // b) for a in self.alpha),
            beta=tuple(-(-x // b) for x in self.beta),
        )


class Lag:
    """Index arithmetic for "client i's round t - lag[i]" over round-indexed rows.

    The rows form a ring: round r lives in row (r - 1) % ring. at(t) returns
    (index, clients): index picks, from a (ring, clients, ...) array, each
    live client's round t - lag[i] in ascending client id, and clients
    picks the same clients from a (clients, ...) array. A client whose
    round is < 1 is not live yet; with no live client both are None.
    Reading a round the ring has already overwritten is an InvariantError.
    """

    def __init__(self, lag: Sequence[int], ring: int):
        self.ring, self.lag, self.max = ring, np.array(lag, dtype=int), max(lag)
        self.uniform = len(set(lag)) == 1
        self.clients = np.arange(len(lag))
        # a lag >= ring reads a row that the current round has overwritten
        self._evicted = min((k for k in lag if k >= ring), default=None)

    def at(self, t: int):
        if self._evicted is not None and t > self._evicted:
            raise InvariantError(f"round {t - self._evicted} left the {self.ring}-round ring")
        if self.uniform:
            s = t - self.max
            return ((s - 1) % self.ring, ALL) if s >= 1 else (None, None)
        rounds = t - self.lag
        if t > self.max:
            return ((rounds - 1) % self.ring, self.clients), ALL
        live = np.flatnonzero(rounds >= 1)
        if not live.size:
            return None, None
        return ((rounds[live] - 1) % self.ring, live), live


class DelayedChannel:
    """Snapshot ring and whole-round uplink on one round counter (see the
    module doc); `ring` is the length of the caller's round-indexed rows.
    _last_published, the open round, is the counter the learners read."""

    def __init__(self, delays: DelayConfig, initial_global: np.ndarray, ring: int):
        self.delays = delays
        self._keep = max(delays.beta, default=0) + 1
        self._snapshots = np.tile(np.asarray(initial_global, dtype=float), (self._keep, 1))
        # an int when beta is uniform, so every client shares one ring row
        self._beta = (delays.beta[0] if len(set(delays.beta)) == 1
                      else np.array(delays.beta, dtype=int))
        self._arrivals = Lag(delays.alpha, ring)
        self._last_published = 0

    def publish_global(self, wg: np.ndarray) -> np.ndarray:
        """Open the next round with snapshot wg; returns every client's fetch,
        one row shared by all clients when beta is uniform, else one row per
        client (views until the next publish)."""
        t = self._last_published = self._last_published + 1
        self._snapshots[t % self._keep] = wg
        return self._snapshots[(t - self._beta) % self._keep]

    def exchange(self):
        """Every client sent its message of the open round; returns the Lag
        index of the caller's rows due now, those sent alpha[i] rounds ago."""
        return self._arrivals.at(self._last_published)[0]

    @property
    def fetch_counts(self) -> list[int]:
        return [self._last_published] * self.delays.clients

    @property
    def pending_payloads(self) -> int:
        """Messages sent but not yet delivered."""
        return sum(min(a, self._last_published) for a in self.delays.alpha)


def as_delay_config(delays: DelayConfig | Sequence | int | None, clients: int) -> DelayConfig:
    """Coerce None, an integer, an (alpha, beta) pair of integers or
    per-client sequences, or a DelayConfig into a DelayConfig for `clients`
    clients. NumPy integers are integers; bools and floats are not."""
    if isinstance(delays, DelayConfig):
        config = delays
    else:
        if delays is None or isinstance(delays, _INT):
            delays = (0, 0) if delays is None else (delays, delays)
        if not isinstance(delays, (Sequence, np.ndarray)) or len(delays) != 2:
            raise ConfigError(f"delays must be an integer or an (alpha, beta) pair, got {delays!r}")
        config = DelayConfig(*(_side(side, clients) for side in delays))
    if config.clients != clients:
        raise ConfigError(f"delay config has {config.clients} entries for {clients} clients")
    return config
