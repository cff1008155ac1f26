import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedres.channel import DelayConfig, DelayedChannel, as_delay_config
from fedres.errors import ConfigError


def make_channel(alpha, beta, init=None):
    cfg = DelayConfig(alpha=tuple(alpha), beta=tuple(beta))
    return DelayedChannel(cfg, np.zeros(2) if init is None else init, 64)


def open_round(ch, wg=None):
    """Open one round as a learner does: its fetches come back, and wg
    (zeros by default) is written as the global model after it, the one in
    force when the next round opens."""
    fetched = ch.publish_global()
    ch.after[0] = np.zeros(2) if wg is None else wg
    return fetched


def due(ch):
    """(client, sent round) of every message the open round delivers, in
    ascending client order; rows are rounds - 1."""
    return delivered(ch, 1)[0]


def delivered(ch, n):
    """due() for each of the n rounds the last publish opened."""
    out = [[] for _ in range(n)]
    arrivals = ch.exchange()
    if arrivals is None:
        return out
    first, index, live = arrivals
    clients = range(ch.delays.clients)
    if isinstance(index, tuple):  # per-client delays: (rows, clients) arrays
        rows = index[0].reshape(n - first, -1)
    else:  # uniform delays: one row of every client, an int for one round
        start = index if n == 1 else index.start
        rows = np.arange(start, start + n - first)[:, None].repeat(len(clients), 1)
    live = np.ones(rows.shape, dtype=bool) if live is None else live.reshape(rows.shape)
    for k in range(first, n):
        out[k] = [(i, int(rows[k - first, i]) + 1) for i in clients if live[k - first, i]]
    return out


def run_rounds(ch, n):
    """Open and exchange n rounds; what each of them delivered."""
    delivered = []
    for _ in range(n):
        open_round(ch)
        delivered.append(due(ch))
    return delivered


class TestDelayConfig:
    def test_rejects_negative(self):
        with pytest.raises(ConfigError):
            DelayConfig(alpha=(-1,), beta=(0,))

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ConfigError):
            DelayConfig(alpha=(0, 1), beta=(0,))

    def test_batched_uses_ceiling(self):
        cfg = DelayConfig(alpha=(0, 3, 4), beta=(1, 8, 0))
        assert cfg.batched(4) == DelayConfig(alpha=(0, 1, 1), beta=(1, 2, 0))
        assert cfg.batched(1) is cfg

    def test_coercions(self):
        assert as_delay_config(None, 2) == DelayConfig.uniform(2)
        assert as_delay_config(3, 2) == DelayConfig.uniform(2, 3, 3)
        assert as_delay_config((1, 2), 2) == DelayConfig(alpha=(1, 1), beta=(2, 2))

    def test_numpy_integers_accepted(self):
        assert as_delay_config(np.int64(3), 2) == DelayConfig.uniform(2, 3, 3)
        cfg = as_delay_config((np.int32(1), np.array([0, 2])), 2)
        assert cfg == DelayConfig(alpha=(1, 1), beta=(0, 2))
        assert all(type(d) is int for d in cfg.alpha + cfg.beta)

    def test_bools_rejected(self):
        for bad in (True, np.True_, (True, 0), ((0, 1), (False, 0))):
            with pytest.raises(ConfigError):
                as_delay_config(bad, 2)

    def test_wrong_shapes_rejected(self):
        for bad in ((1, 2, 3), (1,), 2.0, "12", ((1, 2, 3), (0, 0, 0)), {"alpha": 1}):
            with pytest.raises(ConfigError):
                as_delay_config(bad, 2)
        with pytest.raises(ConfigError):
            DelayConfig(alpha=3, beta=3)


INTS = st.integers(0, 50)
NP_INTS = INTS.map(np.int64) | INTS.map(np.int32)
DELAY = INTS | NP_INTS


class TestDelayCoercionProperties:
    @given(DELAY, st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_scalar_is_uniform_round_trip_split(self, d, clients):
        assert as_delay_config(d, clients) == DelayConfig.uniform(clients, int(d), int(d))

    @given(DELAY, DELAY, st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_pair_of_scalars(self, a, b, clients):
        assert as_delay_config((a, b), clients) == DelayConfig.uniform(clients, int(a), int(b))

    @given(st.integers(1, 6).flatmap(
        lambda n: st.tuples(st.lists(DELAY, min_size=n, max_size=n),
                            st.lists(DELAY, min_size=n, max_size=n))))
    @settings(max_examples=60, deadline=None)
    def test_per_client_tuples(self, sides):
        alpha, beta = sides
        cfg = as_delay_config((tuple(alpha), tuple(beta)), len(alpha))
        assert cfg.alpha == tuple(int(a) for a in alpha)
        assert cfg.beta == tuple(int(b) for b in beta)
        assert all(type(d) is int for d in cfg.alpha + cfg.beta)

    @given(st.one_of(st.booleans(), st.floats(allow_nan=True), st.integers(-50, -1),
                     st.tuples(DELAY, DELAY, DELAY), st.tuples(st.booleans(), DELAY)),
           st.integers(1, 6))
    @settings(max_examples=80, deadline=None)
    def test_everything_else_is_a_config_error(self, bad, clients):
        with pytest.raises(ConfigError):
            as_delay_config(bad, clients)

    @given(st.integers(1, 5), st.integers(1, 5))
    @settings(max_examples=30, deadline=None)
    def test_per_client_length_must_match(self, n, clients):
        sides = (tuple(range(n)), tuple(range(n)))
        if n == clients:
            assert as_delay_config(sides, clients).clients == clients
        else:
            with pytest.raises(ConfigError):
                as_delay_config(sides, clients)


class TestUplink:
    def test_zero_delay_same_round(self):
        ch = make_channel([0], [0])
        assert run_rounds(ch, 1) == [[(0, 1)]]

    def test_three_round_delay(self):
        ch = make_channel([3], [0])
        got = run_rounds(ch, 8)
        assert got[0] == got[1] == got[2] == []
        assert got[7] == [(0, 5)]

    def test_fifo_order_preserved(self):
        ch = make_channel([2], [0])
        run_rounds(ch, 6)
        assert run_rounds(ch, 2) == [[(0, 5)], [(0, 6)]]

    def test_grouped_ascending_client(self):
        ch = make_channel([1, 1], [0, 0])
        run_rounds(ch, 4)
        assert run_rounds(ch, 1) == [[(0, 4), (1, 4)]]
        ch = make_channel([2, 1, 1], [0, 0, 0])
        run_rounds(ch, 1)
        assert run_rounds(ch, 2) == [[(1, 1), (2, 1)], [(0, 1), (1, 2), (2, 2)]]

    def test_not_due_until_deliver_round(self):
        ch = make_channel([3], [0])
        run_rounds(ch, 6)
        assert run_rounds(ch, 1) == [[(0, 4)]]  # round 5's message is not due yet
        assert run_rounds(ch, 1) == [[(0, 5)]]


class TestDownlink:
    """in_force[r] is the global model in force when round r opens: the
    model after round r - 1, the initial model for r = 1."""

    def test_zero_beta_fetches_current_round(self):
        ch = make_channel([0], [0])
        wg = np.array([1.0, 2.0])
        open_round(ch, wg)
        assert np.array_equal(open_round(ch), wg)

    def test_beta_four_fetches_round_six_at_ten(self):
        ch = make_channel([0], [4])
        in_force = {}
        for t in range(1, 11):
            in_force[t + 1] = np.array([float(t + 1), 0.0])
            fetched = open_round(ch, in_force[t + 1])
        assert np.array_equal(fetched, in_force[6])

    def test_warmup_returns_initial(self):
        init = np.array([7.0, 7.0])
        ch = make_channel([0], [5], init=init)
        open_round(ch)
        assert np.array_equal(open_round(ch), init)

    def test_identity_at_zero_delay(self):
        ch = make_channel([0, 0], [0, 0])
        wg = np.zeros(2)
        for t in range(1, 6):
            assert np.array_equal(ch.publish_global(), wg)
            assert due(ch) == [(0, t), (1, t)]
            wg = ch.after[0] = np.array([float(t), 1.0])


class TestDeliveryExactness:
    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_against_bruteforce_list_simulation(self, seed):
        rng = np.random.default_rng(seed)
        clients = int(rng.integers(1, 5))
        alpha = tuple(int(a) for a in rng.integers(0, 6, clients))
        beta = tuple(int(b) for b in rng.integers(0, 6, clients))
        horizon = 30
        ch = make_channel(alpha, beta)
        # independent model: a flat list of (deliver_round, client, sent round)
        outstanding = []
        received = []
        for t in range(1, horizon + 1):
            open_round(ch)
            outstanding += [(t + alpha[i], i, t) for i in range(clients)]
            got = due(ch)
            received.extend(got)
            assert got == [(i, s) for deliver, i, s in sorted(outstanding) if deliver == t]
            assert ch.pending_payloads == sum(deliver > t for deliver, _, _ in outstanding)
            assert ch.fetch_counts == [t] * clients
        # every message delivered exactly once, exactly alpha_i rounds late
        delivered_in_horizon = [(i, s) for deliver, i, s in outstanding if deliver <= horizon]
        assert sorted(received) == sorted(delivered_in_horizon)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_every_reachable_round_is_in_the_history(self, seed):
        """Every fetch returns the model in force when round t - beta_i
        opened, and keeps returning it: no later round overwrites it."""
        rng = np.random.default_rng(seed)
        clients = int(rng.integers(1, 4))
        alpha = tuple(int(a) for a in rng.integers(0, 5, clients))
        beta = tuple(int(b) for b in rng.integers(0, 5, clients))
        init = np.array([0.5, 0.25])
        ch = make_channel(alpha, beta, init=init)
        in_force = {1: init}  # round -> the global model in force when it opens
        fetches = []
        for t in range(1, 40):
            fetched = np.broadcast_to(ch.publish_global(), (clients, 2))
            fetches.append((t, fetched))
            in_force[t + 1] = ch.after[0] = np.array([float(t), -1.0])
        for t, fetched in fetches:
            for i in range(clients):
                # what a client fetch needs
                assert np.array_equal(fetched[i], in_force[max(t - beta[i], 1)])


class TestBlocks:
    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_blocks_fetch_and_deliver_as_rounds_of_one(self, seed):
        """Opening blocks of rounds (each block's global models written into
        its rows), some rewound and replayed a round at a time, fetches the
        model in force at round t - beta_i and delivers round t - alpha_i's row."""
        rng = np.random.default_rng(seed)
        clients = int(rng.integers(1, 4))
        alpha = tuple(int(a) for a in rng.integers(0, 6, clients))
        beta = tuple(int(b) for b in rng.integers(0, 6, clients))
        block = int(rng.integers(1, min(beta) + 2))  # no fetch reads a snapshot of its block
        horizon = 40
        init = np.array([0.5, 0.25])
        ch = DelayedChannel(DelayConfig(alpha=alpha, beta=beta), init, horizon)
        # round -> the global model in force when it opens
        in_force = {r: rng.normal(0, 1, 2) for r in range(2, horizon + 2)}
        in_force[1] = init
        t = 1  # the next round to open
        while t <= horizon:
            n = min(block, horizon - t + 1)
            if rng.random() < 0.3:  # rewind the block and replay it a round at a time
                ch.publish_global(n)
                ch.rewind()
                opened = [(np.broadcast_to(open_round(ch, in_force[t + k + 1]), (clients, 2)),
                           due(ch)) for k in range(n)]
                fetched = np.array([f for f, _ in opened])
                arrived = [d for _, d in opened]
            else:
                fetched = np.broadcast_to(ch.publish_global(n), (n, clients, 2))
                arrived = delivered(ch, n)
                ch.after[:] = [in_force[t + k + 1] for k in range(n)]
            for k in range(n):
                for i in range(clients):
                    want = in_force[t + k - beta[i]] if t + k - beta[i] >= 1 else init
                    assert np.array_equal(fetched[k, i], want)
                assert arrived[k] == [(i, t + k - alpha[i]) for i in range(clients)
                                        if t + k - alpha[i] >= 1]
            t += n
        assert ch.fetch_counts == [horizon] * clients
        assert ch.pending_payloads == sum(min(a, horizon) for a in alpha)
