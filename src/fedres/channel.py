"""The round clock: fixed per-client delays kept as index arithmetic over
round-indexed rows.

Uplink: the message client i sends at round t reaches the server at round
t + alpha[i]. Downlink: the server publishes one global model per round
before any client fetches; client i's fetch at round t returns the model of
round t - beta[i], with every round index <= 0 resolving to the initial
model (warmup convention).

One path serves whole rounds, one or a block of several at a time.
publish_global(rounds) opens the next rounds and returns every client's
fetch in each; exchange() says which of the learner's round-indexed rows
reach the server in them. Neither takes a round: the count of published
rounds is the run's only round counter, and fetch counts and in-flight
messages derive from it. rewind() takes the rounds the last publish opened
back, so that they can be opened again one at a time.
The global models are one more round-indexed column: row R + r - 1 of the
history holds the model in force when round r opens and the R rows in front
of round 1 the initial model, R = max(beta) capped at the run's rounds (a
longer downlink fetches the initial model throughout). A round's fetches
are one row per client (one slice when beta is uniform), and the learner
writes the models after the open rounds into their rows, `after`. The
history is the one record of every fetch: fetches(rounds) gathers any past
round's by the same row rule publish_global applies. A block fetches
nothing newer than its first round's model as long as it is at most
min(beta) + 1 rounds long.
A channel serves one single-threaded run.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral
from typing import Sequence

import numpy as np

from .errors import ConfigError

_INT = (Integral, np.bool_)  # bools pass this screen only to be rejected by _delay


def _delay(value) -> int:
    """A delay as a plain int: integers (NumPy's too) below 2**62, so that a
    round trip fits an int64, pass; bools and the rest do not."""
    if (isinstance(value, (bool, np.bool_)) or not isinstance(value, Integral)
            or not 0 <= value < 2**62):
        raise ConfigError(f"delays must be integers in [0, 2**62), got {value!r}")
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
    """Index arithmetic for "client i's round r - lag[i]" over round-indexed
    rows, round r in row r - 1 of `rows`.

    block(t, n) covers rounds t .. t + n - 1. It returns None when no client
    is live in any of them (a client whose round r - lag[i] is < 1 is not
    live yet), else (first, index, live): rounds before t + first have no
    live client; index picks, from a (rows, clients, ...) array, the
    (n - first, clients, ...) block of each client's round r - lag[i] for
    the rounds from t + first on - a basic slice when the lag is uniform -
    or, when n is 1, the (clients, ...) row without the round axis; live is
    None when every client is live in those rounds, else their mask of the
    same leading shape (entries outside it read rows, modulo `rows`, that
    are not theirs).
    """

    def __init__(self, lag: Sequence[int], rows: int):
        self.rows, self.lag = rows, np.array(lag, dtype=int)
        self.max, self.min = max(lag), min(lag)
        self.uniform = self.max == self.min
        self.clients = np.arange(len(lag))

    def block(self, t: int, n: int):
        first = 0 if t > self.min else self.min + 1 - t
        if first >= n:
            return None
        if self.uniform:
            row = t + first - self.min - 1
            return first, row if n == 1 else slice(row, row + n - first), None
        rounds = (t if n == 1 else np.arange(t + first, t + n)[:, None]) - self.lag
        live = None if t + first > self.max else rounds >= 1
        return first, ((rounds - 1) % self.rows, self.clients), live


class DelayedChannel:
    """The global-model history and the whole-round uplink on one round
    counter, for a run of `rounds` rounds (see the module doc).
    _last_published, the last open round, is the counter the learners read;
    `after`, set by each publish, is the history's (n, d) rows of the
    models after the n open rounds, which the learner writes."""

    def __init__(self, delays: DelayConfig, initial_global: np.ndarray, rounds: int):
        self.delays = delays
        initial = np.asarray(initial_global, dtype=float)
        # the rows in front of round 1: a longer downlink reads the initial model throughout
        self._reach = min(max(delays.beta, default=0), rounds)
        self._history = np.empty((self._reach + rounds + 1, *initial.shape))
        self._history[:self._reach + 1] = initial  # rounds <= 1 open on the initial model
        self._clients = self._history[:, None]  # uniform beta: every client reads one slice
        self._uniform = len(set(delays.beta)) <= 1
        # the fetch rule: client i's fetch in round r is row r + _fetch[i] of the
        # history, the model in force when round r - beta[i] opens (one int for
        # every client when beta is uniform)
        beta = min(delays.beta[0], rounds) if self._uniform else np.minimum(delays.beta, rounds)
        self._fetch = self._reach - 1 - beta
        self._arrivals = Lag(delays.alpha, rounds)
        self._rounds = rounds
        self._open = 1  # rounds the last publish opened
        self._last_published = 0

    def publish_global(self, rounds: int = 1) -> np.ndarray:
        """Open the next `rounds` rounds. Returns every client's fetch in
        each: (rounds, 1, d) when beta is uniform, else (rounds, clients, d);
        for one round (d,) or (clients, d). Stepping past the run's rounds is
        a ConfigError."""
        done = self._last_published
        if done + rounds > self._rounds:
            raise ConfigError(f"round {done + rounds} is past the run's {self._rounds} rounds")
        self._last_published, self._open = done + rounds, rounds
        now = self._reach + done  # the row in force when the first new round opens
        self.after = self._history[now + 1:now + 1 + rounds]
        start = done + 1 + self._fetch  # round done + 1 + k fetches row start + k
        if not self._uniform:
            return self._history[start if rounds == 1 else np.arange(rounds)[:, None] + start]
        return self._history[start] if rounds == 1 else self._clients[start:start + rounds]

    def fetches(self, rounds: np.ndarray) -> np.ndarray:
        """Every client's fetch in each of `rounds` (round numbers from 1 to
        one past the last published), gathered from the history: (len(rounds),
        1, d) when beta is uniform, else (len(rounds), clients, d)."""
        return self._history[np.asarray(rounds)[:, None] + self._fetch]

    def exchange(self):
        """Every client sent its message of each round the last publish
        opened; returns Lag.block of the caller's rows due in those rounds
        (those sent alpha[i] rounds before), or None when none is due."""
        return self._arrivals.block(self._last_published - self._open + 1, self._open)

    def rewind(self) -> None:
        """Take back the rounds the last publish opened, so that they can be
        opened again one at a time."""
        self._last_published -= self._open

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
