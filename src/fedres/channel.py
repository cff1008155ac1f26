"""Round-indexed transport with fixed per-client delays, kept as
ring-buffer index arithmetic.

Uplink: the message client i sends at round t reaches the server at round
t + alpha[i]. Downlink: the server publishes one global-model snapshot per
round before any client fetches; client i's fetch at round t returns the
snapshot of round t - beta[i], with every round index <= 0 resolving to
the initial model (warmup convention).

There is one path, and it serves whole rounds: every client fetches and
sends once per round. A learner keeps its messages in its own
round-indexed rows (a ring of `ring` rows, a required argument), and
exchange(t) says which rows arrive at round t. Snapshots live in a
(max(beta) + 1, d) ring whose rows all start as the initial model; no
fetch reaches back further, so rounds <= 0 find it intact. A channel
serves one single-threaded run.
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

    def row(self, r):
        """Row of round r (an int or an array of rounds)."""
        return (r - 1) % self.ring

    def at(self, t: int):
        if self._evicted is not None and t > self._evicted:
            raise InvariantError(f"round {t - self._evicted} left the {self.ring}-round ring")
        if self.uniform:
            s = t - self.max
            return (self.row(s), ALL) if s >= 1 else (None, None)
        rounds = t - self.lag
        if t > self.max:
            return (self.row(rounds), self.clients), ALL
        live = np.flatnonzero(rounds >= 1)
        if not live.size:
            return None, None
        return (self.row(rounds[live]), live), live


class DelayedChannel:
    """Snapshot ring, fetch count and the whole-round uplink (see module doc).

    `ring` is the length of the caller's round-indexed rows for exchange().
    """

    def __init__(self, delays: DelayConfig, initial_global: np.ndarray, ring: int):
        self.delays = delays
        self.initial_global = np.asarray(initial_global, dtype=float)
        self._keep = max(delays.beta, default=0) + 1
        self._snapshots = np.tile(self.initial_global, (self._keep, 1))
        self._beta = np.array(delays.beta, dtype=int)
        self._uniform_beta = len(set(delays.beta)) <= 1
        self._arrivals = Lag(delays.alpha, ring)
        self._last_published = 0
        self._exchanged = 0
        self._round_fetches = 0

    # -- uplink ---------------------------------------------------------

    def exchange(self, t: int):
        """Every client sent its round-t message; returns the Lag index of the
        caller's rows due now, the messages sent at t - alpha[i].

        Must be called with strictly increasing rounds: a repeated round
        would deliver twice, so it is a hard error.
        """
        if t <= self._exchanged:
            raise InvariantError(f"exchange({t}) after round {self._exchanged} was delivered")
        self._exchanged = t
        return self._arrivals.at(t)

    @property
    def pending_payloads(self) -> int:
        """Messages sent but not yet delivered."""
        return sum(min(a, self._exchanged) for a in self.delays.alpha)

    # -- downlink -------------------------------------------------------

    def publish_global(self, t: int, wg: np.ndarray) -> None:
        """Record the round-t snapshot; exactly once per round, in order."""
        if t != self._last_published + 1:
            raise InvariantError(
                f"publish_global({t}): expected round {self._last_published + 1}"
            )
        self._last_published = t
        self._snapshots[t % self._keep] = wg

    @property
    def fetch_counts(self) -> list[int]:
        return [self._round_fetches] * self.delays.clients

    def fetch_round(self, t: int) -> np.ndarray:
        """Every client's fetch at round t: one ring row shared by all clients
        when beta is uniform, else one row per client (views until the
        publish of round t + 1)."""
        if self._last_published < t:
            raise InvariantError(f"fetch_round at round {t} before publish_global({t})")
        self._round_fetches += 1
        if self._uniform_beta:
            return self._snapshots[(t - self.delays.beta[0]) % self._keep]
        return self._snapshots[(t - self._beta) % self._keep]


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
