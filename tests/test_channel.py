import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedres.channel import DelayConfig, DelayedChannel, as_delay_config
from fedres.errors import ConfigError, InvariantError


def make_channel(alpha, beta, init=None):
    cfg = DelayConfig(alpha=tuple(alpha), beta=tuple(beta))
    return DelayedChannel(cfg, np.zeros(2) if init is None else init)


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
        ch.publish_global(1, np.zeros(2))
        ch.uplink_send(0, 1, "a")
        assert ch.uplink_receive(1) == ["a"]

    def test_three_round_delay(self):
        ch = make_channel([3], [0])
        ch.uplink_send(0, 5, "p")
        for t in range(1, 8):
            assert ch.uplink_receive(t) == []
        assert ch.uplink_receive(8) == ["p"]

    def test_fifo_order_preserved(self):
        ch = make_channel([2], [0])
        ch.uplink_send(0, 5, "first")
        ch.uplink_send(0, 6, "second")
        assert ch.uplink_receive(7) == ["first"]
        assert ch.uplink_receive(8) == ["second"]

    def test_grouped_ascending_client(self):
        ch = make_channel([1, 1], [0, 0])
        ch.uplink_send(1, 4, "from-1")
        ch.uplink_send(0, 4, "from-0")
        assert ch.uplink_receive(5) == ["from-0", "from-1"]

    def test_not_due_until_deliver_round(self):
        ch = make_channel([3], [0])
        ch.uplink_send(0, 5, "p")
        assert ch.uplink_receive(7) == []
        assert ch.uplink_receive(8) == ["p"]

    def test_double_receive_is_hard_error(self):
        ch = make_channel([0], [0])
        ch.uplink_receive(1)
        with pytest.raises(InvariantError):
            ch.uplink_receive(1)

    def test_unknown_client(self):
        ch = make_channel([0], [0])
        with pytest.raises(ConfigError):
            ch.uplink_send(3, 1, "x")


class TestDownlink:
    def test_zero_beta_fetches_current_round(self):
        ch = make_channel([0], [0])
        wg = np.array([1.0, 2.0])
        ch.publish_global(1, wg)
        assert np.array_equal(ch.fetch_global(0, 1), wg)

    def test_beta_four_fetches_round_six_at_ten(self):
        ch = make_channel([0], [4])
        snaps = {}
        for t in range(1, 11):
            snaps[t] = np.array([float(t), 0.0])
            ch.publish_global(t, snaps[t])
        assert np.array_equal(ch.fetch_global(0, 10), snaps[6])

    def test_warmup_returns_initial(self):
        init = np.array([7.0, 7.0])
        ch = make_channel([0], [5], init=init)
        ch.publish_global(1, np.zeros(2))
        ch.publish_global(2, np.zeros(2))
        assert ch.fetch_global(0, 2) is init

    def test_fetch_before_publish_fails(self):
        ch = make_channel([0], [0])
        with pytest.raises(InvariantError):
            ch.fetch_global(0, 1)

    def test_publish_must_be_sequential(self):
        ch = make_channel([0], [0])
        ch.publish_global(1, np.zeros(2))
        with pytest.raises(InvariantError):
            ch.publish_global(3, np.zeros(2))

    def test_evicted_snapshot_is_hard_error(self):
        ch = make_channel([1], [1])
        for t in range(1, 30):
            ch.publish_global(t, np.zeros(2))
        with pytest.raises(InvariantError):
            ch.snapshot(2)

    def test_identity_at_zero_delay(self):
        ch = make_channel([0, 0], [0, 0])
        for t in range(1, 6):
            wg = np.array([float(t), 1.0])
            ch.publish_global(t, wg)
            assert np.array_equal(ch.fetch_global(0, t), wg)
            ch.uplink_send(0, t, ("payload", t))
            ch.uplink_send(1, t, ("payload2", t))
            assert ch.uplink_receive(t) == [("payload", t), ("payload2", t)]


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
        # independent model: a flat list of (deliver_round, client, payload)
        outstanding = []
        sends = {
            (i, t): bool(rng.integers(0, 2)) for i in range(clients) for t in range(1, horizon + 1)
        }
        received = []
        for t in range(1, horizon + 1):
            ch.publish_global(t, np.zeros(2))
            for i in range(clients):
                if sends[(i, t)]:
                    payload = (i, t)
                    ch.uplink_send(i, t, payload)
                    outstanding.append((t + alpha[i], i, payload))
            got = ch.uplink_receive(t)
            received.extend(got)
            expected = sorted(
                [rec for rec in outstanding if rec[0] == t], key=lambda rec: (rec[1], rec[2][1])
            )
            assert got == [rec[2] for rec in expected]
        # every payload delivered exactly once, exactly alpha_i rounds late
        delivered_in_horizon = [rec for rec in outstanding if rec[0] <= horizon]
        assert sorted(received) == sorted(rec[2] for rec in delivered_in_horizon)
        for client_id, sent_at in received:
            assert sends[(client_id, sent_at)]

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_eviction_never_loses_reachable_snapshots(self, seed):
        rng = np.random.default_rng(seed)
        clients = int(rng.integers(1, 4))
        alpha = tuple(int(a) for a in rng.integers(0, 5, clients))
        beta = tuple(int(b) for b in rng.integers(0, 5, clients))
        ch = make_channel(alpha, beta)
        all_snaps = {0: ch.initial_global}
        for t in range(1, 40):
            wg = np.array([float(t), -1.0])
            ch.publish_global(t, wg)
            all_snaps[t] = wg
            for i in range(clients):
                # what a client fetch needs
                assert np.array_equal(ch.fetch_global(i, t), all_snaps[max(t - beta[i], 0)])
                ch.uplink_send(i, t, (i, t))
            for _, sent_at in ch.uplink_receive(t):
                pass
            # what the server pairing needs for every message arriving now
            for i in range(clients):
                s = t - alpha[i]
                if s >= 1:
                    snap = ch.snapshot(max(s - beta[i], 0))
                    assert np.array_equal(snap, all_snaps[max(s - beta[i], 0)])
