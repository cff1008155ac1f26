import numpy as np
import pytest

from fedres.channel import DelayConfig
from fedres.core import HyperParams
from fedres.datagen import FederatedDataset, ClientData, gen_appendixc, gen_example2
from fedres.engine import SgdSystem, run_fedres_sgd
from fedres.errors import ConfigError, InvariantError
from fedres.results import RunResult

from conftest import ball_project_oracle, rows_of, stack_rows, stepped_sgd_system
from sgd_oracle import alignment_offsets


def dataset_from_streams(streams):
    """A pre-generated dataset of per-client (x_global, x_local, y) blocks."""
    clients = [ClientData(train=st, test=tuple(a[:0] for a in st), task=("scripted",))
               for st in streams]
    return FederatedDataset(clients=clients, pregenerated=streams)


def scripted_stream(rng, rounds, d_global, d_local):
    """An (x_global, x_local, y) block of random rows, drawn row by row."""
    return stack_rows(
        (rng.normal(0, 1, d_global), rng.normal(0, 1, d_local), rng.normal(0, 1))
        for _ in range(rounds)
    )


class TestClientRound:
    def test_single_step_hand_oracle(self):
        ds = gen_appendixc(1, 3)
        xg, xl, y = rows_of(ds.pregenerated[0])[0]
        init = np.array([1.0, 0.0])
        hp = HyperParams(radius=100.0, eta_global=1.0, eta_local=1.0)
        res = run_fedres_sgd(ds, 0, hp, 1, 3, init_global=init, init_locals=[init])
        pred = init @ xg + init @ xl
        expected = init - 1.0 * 2.0 * (pred - y) * xl
        assert res.final_locals[0] == pytest.approx(expected, rel=1e-15)

    def test_warmup_leaves_local_unchanged(self, rng):
        streams = [scripted_stream(rng, 3, 2, 2)]
        ds = dataset_from_streams(streams)
        init = np.array([0.5, -0.5])
        hp = HyperParams(eta_global=0.1, eta_local=0.1)
        res = run_fedres_sgd(ds, (2, 1), hp, 3, 0, init_locals=[init])
        assert np.all(res.final_locals[0] == init)  # t <= alpha+beta for all rounds

    def test_first_round_under_delay_prices_initial_models(self, rng):
        streams = [scripted_stream(rng, 1, 2, 2) for _ in range(2)]
        ds = dataset_from_streams(streams)
        init_g = np.array([0.4, 0.1])
        init_l = [np.array([-0.2, 0.3]), np.array([0.6, 0.0])]
        hp = HyperParams(eta_global=0.5, eta_local=0.5)
        res = run_fedres_sgd(ds, (1, 0), hp, 1, 0, init_global=init_g, init_locals=init_l)
        for i, stream in enumerate(streams):
            xg, xl, y = rows_of(stream)[0]
            expected = (y - (init_g @ xg + init_l[i] @ xl)) ** 2
            assert res.loss[0, i] == pytest.approx(expected, rel=1e-12)

    def test_stepping_past_the_streams_and_run_after_step_are_config_errors(self, rng):
        """On 5-row streams: a sixth step(), and run() after two step()s - at
        one client with zero delay (the single-client loop) for both learners
        and at two clients with delays (1, 1) - raise ConfigError."""
        from fedres.erm import ErmSystem

        one = dataset_from_streams([scripted_stream(rng, 5, 2, 2)])
        two = dataset_from_streams([scripted_stream(rng, 5, 2, 2) for _ in range(2)])
        system = SgdSystem.build(one, 0, HyperParams(), 5, 0)
        for _ in range(5):
            system.step()
        with pytest.raises(ConfigError):
            system.step()
        assert system.channel.fetch_counts == [5]
        for learner, dataset, delays in ((SgdSystem, one, 0), (ErmSystem, one, 0),
                                         (SgdSystem, two, (1, 1)), (ErmSystem, two, (1, 1))):
            system = learner.build(dataset, delays, HyperParams(), 5, 0)
            system.step()
            system.step()
            with pytest.raises(ConfigError):
                system.run()
            assert system.channel.fetch_counts == [2] * dataset.n_clients

    @pytest.mark.parametrize("variant, batch_size", [("misaligned", 1), ("aligned", 2)])
    def test_a_step_that_overflows_raises_the_error_of_run(self, variant, batch_size):
        """Global features of 1e200 at a global step of 1e100 overflow the
        first server step on the block path: a step() sequence ends in the
        InvariantError run() raises, and no NumPy warning comes first (the
        suite turns one into an error)."""
        rng = np.random.default_rng(0)
        stream = rng.normal(0, 1, (40, 2)) * 1e200, rng.normal(0, 1, (40, 2)), rng.normal(0, 1, 40)
        hyper = HyperParams(radius=1e300, eta_global=1e100)
        message = "^the global model has a non-finite norm after round 1$"
        systems = [SgdSystem.build(dataset_from_streams([stream]), 0, hyper, 40, 0, batch_size,
                                   variant=variant) for _ in range(2)]
        with pytest.raises(InvariantError, match=message):
            systems[0].run()
        with pytest.raises(InvariantError, match=message):
            for _ in range(40 // batch_size):
                systems[1].step()


class TestServerRound:
    def test_no_messages_leaves_global_unchanged(self, rng):
        streams = [scripted_stream(rng, 2, 2, 1)]
        ds = dataset_from_streams(streams)
        init = np.array([0.3, 0.3])
        res = run_fedres_sgd(
            ds, (3, 0), HyperParams(eta_global=0.5, eta_local=0.5), 2, 0, init_global=init
        )
        assert np.all(res.final_global == init)

    def test_single_client_zero_delay_is_centralized_step(self, rng):
        streams = [scripted_stream(rng, 1, 3, 2)]
        ds = dataset_from_streams(streams)
        hp = HyperParams(radius=5.0, eta_global=0.2, eta_local=0.3)
        res = run_fedres_sgd(ds, 0, hp, 1, 0)
        xg, xl, y = rows_of(streams[0])[0]
        wl = ball_project_oracle(-0.3 * 2.0 * (0.0 - y) * xl, 5.0)
        pred = wl @ xl  # global is zero before the server step
        wg = ball_project_oracle(-0.2 * 2.0 * (pred - y) * xg, 5.0)
        assert res.final_locals[0] == pytest.approx(wl, rel=1e-15)
        assert res.final_global == pytest.approx(wg, rel=1e-15)


class TestScriptedTwoClientDelayedRun:
    def test_matches_bruteforce_transcription(self, rng):
        """P=2, alpha=beta=1, 4 rounds, against an explicit re-simulation."""
        clients, rounds, dg, dl = 2, 4, 2, 2
        streams = [scripted_stream(rng, rounds, dg, dl) for _ in range(clients)]
        rows = [rows_of(st) for st in streams]
        ds = dataset_from_streams(streams)
        eta, radius = 0.1, 100.0
        hp = HyperParams(radius=radius, eta_global=eta, eta_local=eta)
        res = run_fedres_sgd(ds, (1, 1), hp, rounds, 0)

        # Brute force: explicit per-round bookkeeping, dict-of-everything.
        snapshots = {0: np.zeros(dg)}
        wl = [np.zeros(dl) for _ in range(clients)]
        wg = np.zeros(dg)
        hist = {}  # (client, round) -> (fetched, wl_after, sample)
        inbox = {}  # deliver_round -> list of (client, sent_round, xg, lp, y)
        losses = {}
        for t in range(1, rounds + 1):
            snapshots[t] = wg
            for i in range(clients):
                fetched = snapshots[max(t - 1, 0)]  # beta=1
                xg, xl, y = rows[i][t - 1]
                smid = t - 2  # alpha+beta = 2
                if smid >= 1:
                    g_then, wl_then, (xg_then, xl_then, y_then) = hist[(i, smid)]
                    pred = g_then @ xg_then + wl_then @ xl_then
                    wl[i] = ball_project_oracle(
                        wl[i] - eta * 2.0 * (pred - y_then) * xl_then, radius
                    )
                hist[(i, t)] = (fetched, wl[i], (xg, xl, y))
                pred_now = fetched @ xg + wl[i] @ xl
                losses[(t, i)] = (y - pred_now) ** 2
                inbox.setdefault(t + 1, []).append((i, t, xg, float(wl[i] @ xl), y))
            gsum = np.zeros(dg)
            arrived = False
            for i, sent, xg, lp, y in inbox.get(t, []):
                snap = snapshots[max(sent - 1, 0)]  # sent - beta_i
                gsum += 2.0 * (snap @ xg + lp - y) * xg
                arrived = True
            if arrived:
                wg = ball_project_oracle(wg - eta * gsum, radius)

        for (t, i), loss in losses.items():
            assert res.loss[t - 1, i] == pytest.approx(loss, rel=1e-14)
        assert res.final_global == pytest.approx(wg, rel=1e-14)
        for i in range(clients):
            assert res.final_locals[i] == pytest.approx(wl[i], rel=1e-14)


class TestInvariants:
    def test_models_stay_in_ball(self, rng):
        streams = [scripted_stream(rng, 30, 2, 2) for _ in range(3)]
        ds = dataset_from_streams(streams)
        hp = HyperParams(radius=0.25, eta_global=0.9, eta_local=0.9)
        system = SgdSystem.build(ds, DelayConfig.uniform(3, 1, 1), hp, 30, 0)
        for _ in range(30):
            system.step()
            assert np.linalg.norm(system.wg) <= 0.25 * (1 + 1e-12)
            for wl in system.wl:
                assert np.linalg.norm(wl) <= 0.25 * (1 + 1e-12)

    def test_alignment_provenance(self, rng):
        for variant in ("aligned", "asymmetric"):
            streams = [scripted_stream(rng, 20, 2, 2) for _ in range(3)]
            ds = dataset_from_streams(streams)
            hp = HyperParams(eta_global=0.05, eta_local=0.05)
            system = stepped_sgd_system(ds, ((0, 2, 3), (1, 0, 2)), hp, 20, 0, variant=variant)
            offsets = alignment_offsets(system)
            assert offsets, "no gradients recorded"
            for global_round, local_round, beta in offsets:
                assert local_round - global_round == beta

    def test_misaligned_server_breaks_alignment(self, rng):
        streams = [scripted_stream(rng, 20, 2, 2) for _ in range(2)]
        ds = dataset_from_streams(streams)
        hp = HyperParams(eta_global=0.05, eta_local=0.05)
        system = stepped_sgd_system(ds, (2, 3), hp, 20, 0, variant="misaligned")
        offsets = alignment_offsets(system)
        assert any(l - g != beta for g, l, beta in offsets)

    def test_determinism_bitwise(self):
        ds = gen_appendixc(50, 9)
        hp = HyperParams(eta_global=0.05, eta_local=0.05)
        a = run_fedres_sgd(ds, (1, 1), hp, 50, 9)
        b = run_fedres_sgd(ds, (1, 1), hp, 50, 9)
        assert np.array_equal(a.loss, b.loss) and np.array_equal(a.prediction, b.prediction)
        assert np.all(a.final_global == b.final_global)

    def test_variants_diverge_under_delay(self, rng):
        streams = [scripted_stream(rng, 25, 2, 2) for _ in range(2)]
        ds = dataset_from_streams(streams)
        hp = HyperParams(eta_global=0.1, eta_local=0.1)
        finals = {
            v: run_fedres_sgd(ds, (2, 2), hp, 25, 0, variant=v).final_global
            for v in ("aligned", "misaligned", "asymmetric")
        }
        assert not np.allclose(finals["aligned"], finals["misaligned"])
        assert not np.allclose(finals["aligned"], finals["asymmetric"])

    def test_rejects_unknown_variant(self, rng):
        ds = dataset_from_streams([scripted_stream(rng, 2, 1, 1)])
        with pytest.raises(ConfigError):
            run_fedres_sgd(ds, 0, HyperParams(), 2, 0, variant="bogus")


NON_FINITE_INITS = [(bad, np.array([1.0, 0.0])) for bad in ([np.inf, 0.0], [0.0, np.nan])] + [
    (np.array([1.0, 0.0]), bad) for bad in ([-np.inf, 0.0], [np.nan, 0.0])]


class TestNumericHealth:
    @pytest.mark.parametrize("init_global, init_local", NON_FINITE_INITS)
    def test_non_finite_initial_models_are_config_errors(self, init_global, init_local):
        """inf or NaN in the global or a local model is bad input, refused
        before round 1 (not an InvariantError after it)."""
        with pytest.raises(ConfigError, match="initial models must be finite"):
            run_fedres_sgd(gen_appendixc(50, 0), 0, HyperParams(), 50, 0,
                           init_global=np.array(init_global), init_locals=[np.array(init_local)])

    def test_diverging_run_names_round_and_client(self):
        ds = gen_example2(2, 4, np.full(4, 0.5), 0.0, 200, 0)
        hp = HyperParams(radius=1e300, eta_global=50.0, eta_local=50.0)
        with pytest.raises(InvariantError, match=r"client \d+ .*round \d+"):
            run_fedres_sgd(ds, 0, hp, 200, 0)

    @pytest.mark.parametrize("scale,eta_global,eta_local,seed,message", [
        (1.0, 1e-3, 1e12, 0, "the local model of client 1 has a non-finite norm after round 128"),
        # the block of rounds 85-90 prices round 90's loss, non-finite, which rounds of
        # one never reach
        (1e10, 1e-3, 1e-3, 1, "the global model has a non-finite norm after round 86"),
        # round 48 fails, and round 45's loss, priced in the same block, comes first
        (1e20, 1e-3, 1e-20, 1, "non-finite loss at round 45, client 0"),
    ])
    def test_diverging_blocks_name_what_rounds_of_one_name(self, scale, eta_global, eta_local,
                                                           seed, message):
        """Delays (5, 5) run blocks of six rounds. A block that fails is
        replayed a round at a time, so the error names the round and client
        (or the earlier non-finite loss) that the round-at-a-time engine
        named; the messages were recorded from it."""
        if scale == 1.0:
            ds = gen_example2(4, 4, np.full(4, 0.5), 0.0, 200, 0)
            inits = {}
        else:
            rng = np.random.default_rng(seed)
            streams = [(rng.normal(0, 1, (120, 2)) * scale, rng.normal(0, 1, (120, 2)) * scale,
                        rng.normal(0, 1, 120)) for _ in range(2)]
            ds = dataset_from_streams(streams)
            inits = dict(init_global=np.ones(2), init_locals=[np.ones(2)] * 2)
        hp = HyperParams(radius=1e300, eta_global=eta_global, eta_local=eta_local)
        rounds = len(ds.pregenerated[0][2])
        assert SgdSystem.build(ds, (5, 5), hp, rounds, 0).block == 6
        with pytest.raises(InvariantError, match=f"^{message}$"):
            run_fedres_sgd(ds, (5, 5), hp, rounds, 0, **inits)

    def test_overflowing_loss_is_caught_after_the_loop(self):
        # tiny features and steps keep the models finite while (y - pred)^2 overflows
        tiny = np.full((3, 1), 1e-10)
        ds = dataset_from_streams([(tiny, tiny, np.full(3, 1e155))])
        hp = HyperParams(radius=1.0, eta_global=1e-150, eta_local=1e-150)
        with pytest.raises(InvariantError, match="non-finite loss at round 1, client 0"):
            run_fedres_sgd(ds, 0, hp, 3, 0)

    def test_non_finite_final_model_is_caught(self):
        y = np.zeros((2, 3, 1))
        x = np.zeros((2, 3, 1, 2))
        RunResult(y, y, x, x, np.zeros(2), [np.zeros(2)] * 3, [2] * 3)
        for bad in (0, 2):
            locals_ = [np.zeros(2) for _ in range(3)]
            locals_[bad][1] = np.inf
            with pytest.raises(InvariantError, match="non-finite final model"):
                RunResult(y, y, x, x, np.zeros(2), locals_, [2] * 3)
        with pytest.raises(InvariantError, match="non-finite final model"):
            RunResult(y, y, x, x, np.array([0.0, np.nan]), [np.zeros(2)] * 3, [2] * 3)

    def test_nan_data_is_caught(self, rng):
        streams = [scripted_stream(rng, 6, 2, 2) for _ in range(2)]
        xg, xl, y = streams[1]
        xg[3], xl[3], y[3] = [np.nan, 0.0], 0.0, 0.0
        ds = dataset_from_streams(streams)
        with pytest.raises(InvariantError, match=r"round 4, client 1|client 1 .*round 4"):
            run_fedres_sgd(ds, 0, HyperParams(eta_global=0.1, eta_local=0.1), 6, 0)
