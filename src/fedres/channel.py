"""The round clock: fixed per-client delays kept as index arithmetic over
ring buffers.

Uplink: the message client i sends at round t reaches the server at round
t + alpha[i]. Downlink: the server publishes one global-model snapshot per
round before any client fetches; client i's fetch at round t returns the
snapshot of round t - beta[i], with every round index <= 0 resolving to
the initial model (warmup convention).

One path serves whole rounds, one or a block of several at a time.
publish_global(wg, rounds) opens the next rounds and returns every
client's fetch in each; exchange() says which of the learner's
round-indexed rows (a ring of `ring` rows) reach the server in them.
Neither takes a round: the count of published rounds is the run's only
round counter, and fetch counts and in-flight messages derive from it.
A block's own snapshots are known only once it has run, so the learner
hands them to the next publish, which writes them in one call. A block
fetches nothing newer than its first round's snapshot as long as it is at
most min(beta) + 1 rounds long; rewind() takes a block back so that its
rounds can be opened again one at a time.
Snapshots live in a window of 2 (max(beta) + L) rows, L the longest
block, whose rows all start as the initial model: round r sits a fixed
number of rows after round r - 1, so a block's fetches are one slice
(one gather when beta differs across clients), and when the next
snapshots do not fit, the max(beta) newest slide to the front. No fetch
reaches back further, so rounds <= 0 find the initial model.
A channel serves one single-threaded run.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral
from typing import Sequence

import numpy as np

from .errors import ConfigError, InvariantError

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
    """Index arithmetic for "client i's round r - lag[i]" over round-indexed rows.

    The rows form a ring: round r lives in row (r - 1) % ring. block(t, n)
    covers rounds t .. t + n - 1. It returns None when no client is live in
    any of them (a client whose round r - lag[i] is < 1 is not live yet),
    else (first, index, live): rounds before t + first have no live
    client; index picks, from a (ring, clients, ...) array, the
    (n - first, clients, ...) block of each client's round r - lag[i] for
    the rounds from t + first on - a basic slice when the lag is uniform -
    or, when n is 1, the (clients, ...) row without the round axis; live is
    None when every client is live in those rounds, else their mask of the
    same leading shape (entries outside it read rows that are not theirs).
    Reading a round the ring has already overwritten is an InvariantError.
    """

    def __init__(self, lag: Sequence[int], ring: int):
        self.ring, self.lag = ring, np.array(lag, dtype=int)
        self.max, self.min = max(lag), min(lag)
        self.uniform = self.max == self.min
        self.clients = np.arange(len(lag))
        # a lag >= ring reads a row that the current round has overwritten
        self._evicted = min((k for k in lag if k >= ring), default=None)

    def block(self, t: int, n: int):
        last = t + n - 1
        if self._evicted is not None and last > self._evicted:
            raise InvariantError(f"round {last - self._evicted} left the {self.ring}-round ring")
        first = 0 if t > self.min else self.min + 1 - t
        if first >= n:
            return None
        if self.uniform:
            row = (t + first - self.min - 1) % self.ring
            return first, row if n == 1 else slice(row, row + n - first), None
        rounds = (t if n == 1 else np.arange(t + first, last + 1)[:, None]) - self.lag
        live = None if t + first > self.max else rounds >= 1
        return first, ((rounds - 1) % self.ring, self.clients), live


class DelayedChannel:
    """Snapshot window and whole-round uplink on one round counter (see the
    module doc); `ring` is the length of the caller's round-indexed rows and
    `block` the most rounds one publish opens. _last_published, the last
    open round, is the counter the learners read."""

    def __init__(self, delays: DelayConfig, initial_global: np.ndarray, ring: int,
                 block: int = 1):
        self.delays = delays
        self._reach = max(delays.beta, default=0)  # the oldest snapshot a fetch reads
        self._width = 2 * (self._reach + block)  # slides at most every other publish
        self._snapshots = np.tile(np.asarray(initial_global, dtype=float), (self._width, 1))
        self._end = self._reach  # the row after the newest snapshot; rows before are rounds <= 0
        self._open = 1  # rounds the last publish opened: the next one brings their snapshots
        self._beta = delays.beta[0]
        self._offsets = None  # uniform beta: every client reads one slice of a (width, 1, d) view
        self._clients = self._snapshots[:, None]
        if len(set(delays.beta)) > 1:  # round t + k's fetch of client i: row end - 1 + [k, i]
            self._offsets = np.arange(block)[:, None] - np.array(delays.beta, dtype=int)
        self._arrivals = Lag(delays.alpha, ring)
        self._last_published = 0

    def publish_global(self, wg: np.ndarray, rounds: int = 1) -> np.ndarray:
        """Open the next `rounds` rounds. wg holds the global models of the
        rounds after the newest snapshot up to the first new round, one row
        per round (a single model stands for all of them). Returns every
        client's fetch in each new round: (rounds, 1, d) when beta is uniform,
        else (rounds, clients, d); for one round (d,) or (clients, d). Views
        until the next publish."""
        new = self._open
        end = self._end + new
        if end > self._width:  # slide: keep the `reach` newest snapshots
            keep, old = self._reach, self._end
            self._snapshots[:keep] = self._snapshots[old - keep:old]
            end = keep + new
        if new == 1:
            self._snapshots[end - 1] = wg
        else:
            self._snapshots[end - new:end] = wg
        self._end, self._open = end, rounds
        self._last_published += rounds
        if self._offsets is not None:
            return self._snapshots[end - 1 + self._offsets[0 if rounds == 1 else slice(rounds)]]
        start = end - 1 - self._beta  # round t + k fetches row end - 1 + k - beta
        return self._snapshots[start] if rounds == 1 else self._clients[start:start + rounds]

    def exchange(self):
        """Every client sent its message of each round the last publish
        opened; returns Lag.block of the caller's rows due in those rounds
        (those sent alpha[i] rounds before), or None when none is due."""
        return self._arrivals.block(self._last_published - self._open + 1, self._open)

    def rewind(self) -> None:
        """Take back the rounds the last publish opened: return to the end of
        the round before them, whose snapshots stay, so that they can be
        opened again one at a time."""
        self._end -= 1
        self._last_published -= self._open
        self._open = 1

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
