import numpy as np
import pytest

from fedres.channel import DelayConfig
from fedres.core import HyperParams, Sample
from fedres.datagen import FederatedDataset, ClientData, gen_appendixc, gen_example2
from fedres.engine import SgdSystem, run_fedres_sgd
from fedres.errors import ConfigError, InvariantError

from conftest import ball_project_oracle


def dataset_from_streams(streams, d_global, d_locals):
    clients = [ClientData(train=st, test=[], task=("scripted",)) for st in streams]
    return FederatedDataset(
        clients=clients, d_global=d_global, d_locals=d_locals, pregenerated=streams
    )


def scripted_stream(rng, rounds, d_global, d_local):
    return [
        Sample(rng.normal(0, 1, d_global), rng.normal(0, 1, d_local), float(rng.normal(0, 1)))
        for _ in range(rounds)
    ]


class TestClientRound:
    def test_single_step_hand_oracle(self):
        ds = gen_appendixc(1, 3)
        s = ds.pregenerated[0][0]
        init = np.array([1.0, 0.0])
        hp = HyperParams(radius=100.0, eta_global=1.0, eta_local=1.0)
        res = run_fedres_sgd(ds, 0, hp, 1, 3, init_global=init, init_locals=[init])
        pred = init @ s.x_global + init @ s.x_local
        expected = init - 1.0 * 2.0 * (pred - s.y) * s.x_local
        assert res.final_locals[0] == pytest.approx(expected, rel=1e-15)

    def test_warmup_leaves_local_unchanged(self, rng):
        streams = [scripted_stream(rng, 3, 2, 2)]
        ds = dataset_from_streams(streams, 2, [2])
        init = np.array([0.5, -0.5])
        hp = HyperParams(eta_global=0.1, eta_local=0.1)
        res = run_fedres_sgd(ds, (2, 1), hp, 3, 0, init_locals=[init])
        assert np.all(res.final_locals[0] == init)  # t <= alpha+beta for all rounds

    def test_first_round_under_delay_prices_initial_models(self, rng):
        streams = [scripted_stream(rng, 1, 2, 2) for _ in range(2)]
        ds = dataset_from_streams(streams, 2, [2, 2])
        init_g = np.array([0.4, 0.1])
        init_l = [np.array([-0.2, 0.3]), np.array([0.6, 0.0])]
        hp = HyperParams(eta_global=0.5, eta_local=0.5)
        res = run_fedres_sgd(ds, (1, 0), hp, 1, 0, init_global=init_g, init_locals=init_l)
        for tr in res.traces:
            s = streams[tr.client_id][0]
            expected = (s.y - (init_g @ s.x_global + init_l[tr.client_id] @ s.x_local)) ** 2
            assert tr.loss == pytest.approx(expected, rel=1e-12)

    def test_missing_history_is_guarded(self, rng):
        # direct state abuse: shrink the history ring below the round trip and step into the gap
        from fedres.channel import Lag
        from fedres.errors import InvariantError

        system = SgdSystem(2, [2], DelayConfig.uniform(1, 1, 1), HyperParams(radius=1.0))
        system._history = Lag((2,), ring=2)
        s = Sample(np.ones(2), np.ones(2), 1.0)
        system.run_round([s])
        system.run_round([s])
        with pytest.raises(InvariantError):
            system.run_round([s])


class TestServerRound:
    def test_no_messages_leaves_global_unchanged(self, rng):
        streams = [scripted_stream(rng, 2, 2, 1)]
        ds = dataset_from_streams(streams, 2, [1])
        init = np.array([0.3, 0.3])
        res = run_fedres_sgd(
            ds, (3, 0), HyperParams(eta_global=0.5, eta_local=0.5), 2, 0, init_global=init
        )
        assert np.all(res.final_global == init)

    def test_single_client_zero_delay_is_centralized_step(self, rng):
        streams = [scripted_stream(rng, 1, 3, 2)]
        ds = dataset_from_streams(streams, 3, [2])
        hp = HyperParams(radius=5.0, eta_global=0.2, eta_local=0.3)
        res = run_fedres_sgd(ds, 0, hp, 1, 0)
        s = streams[0][0]
        wl = ball_project_oracle(-0.3 * 2.0 * (0.0 - s.y) * s.x_local, 5.0)
        pred = wl @ s.x_local  # global is zero before the server step
        wg = ball_project_oracle(-0.2 * 2.0 * (pred - s.y) * s.x_global, 5.0)
        assert res.final_locals[0] == pytest.approx(wl, rel=1e-15)
        assert res.final_global == pytest.approx(wg, rel=1e-15)


class TestScriptedTwoClientDelayedRun:
    def test_matches_bruteforce_transcription(self, rng):
        """P=2, alpha=beta=1, 4 rounds, against an explicit re-simulation."""
        clients, rounds, dg, dl = 2, 4, 2, 2
        streams = [scripted_stream(rng, rounds, dg, dl) for _ in range(clients)]
        ds = dataset_from_streams(streams, dg, [dl] * clients)
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
                s = streams[i][t - 1]
                smid = t - 2  # alpha+beta = 2
                if smid >= 1:
                    g_then, wl_then, s_then = hist[(i, smid)]
                    pred = g_then @ s_then.x_global + wl_then @ s_then.x_local
                    wl[i] = ball_project_oracle(
                        wl[i] - eta * 2.0 * (pred - s_then.y) * s_then.x_local, radius
                    )
                hist[(i, t)] = (fetched, wl[i], s)
                pred_now = fetched @ s.x_global + wl[i] @ s.x_local
                losses[(t, i)] = (s.y - pred_now) ** 2
                inbox.setdefault(t + 1, []).append(
                    (i, t, s.x_global, float(wl[i] @ s.x_local), s.y)
                )
            gsum = np.zeros(dg)
            arrived = False
            for (i, sent, xg, lp, y) in inbox.get(t, []):
                snap = snapshots[max(sent - 1, 0)]  # sent - beta_i
                gsum += 2.0 * (snap @ xg + lp - y) * xg
                arrived = True
            if arrived:
                wg = ball_project_oracle(wg - eta * gsum, radius)

        for tr in res.traces:
            assert tr.loss == pytest.approx(losses[(tr.round, tr.client_id)], rel=1e-14)
        assert res.final_global == pytest.approx(wg, rel=1e-14)
        for i in range(clients):
            assert res.final_locals[i] == pytest.approx(wl[i], rel=1e-14)


class TestInvariants:
    def test_models_stay_in_ball(self, rng):
        streams = [scripted_stream(rng, 30, 2, 2) for _ in range(3)]
        ds = dataset_from_streams(streams, 2, [2, 2, 2])
        hp = HyperParams(radius=0.25, eta_global=0.9, eta_local=0.9)
        system = SgdSystem(2, [2, 2, 2], DelayConfig.uniform(3, 1, 1), hp)
        for t in range(30):
            system.run_round([st[t] for st in streams])
            assert np.linalg.norm(system.wg) <= 0.25 * (1 + 1e-12)
            for wl in system.wl:
                assert np.linalg.norm(wl) <= 0.25 * (1 + 1e-12)

    def test_alignment_provenance(self, rng):
        for variant in ("aligned", "asymmetric"):
            streams = [scripted_stream(rng, 20, 2, 2) for _ in range(3)]
            ds = dataset_from_streams(streams, 2, [2, 2, 2])
            hp = HyperParams(eta_global=0.05, eta_local=0.05)
            res = run_fedres_sgd(
                ds,
                ((0, 2, 3), (1, 0, 2)),
                hp,
                20,
                0,
                variant=variant,
                record_provenance=True,
            )
            offsets = res.system.alignment_offsets()
            assert offsets, "no gradients recorded"
            for global_round, local_round, beta in offsets:
                assert local_round - global_round == beta

    def test_misaligned_server_breaks_alignment(self, rng):
        streams = [scripted_stream(rng, 20, 2, 2) for _ in range(2)]
        ds = dataset_from_streams(streams, 2, [2, 2])
        hp = HyperParams(eta_global=0.05, eta_local=0.05)
        res = run_fedres_sgd(
            ds, (2, 3), hp, 20, 0, variant="misaligned", record_provenance=True
        )
        offsets = res.system.alignment_offsets()
        assert any(l - g != beta for g, l, beta in offsets)

    def test_determinism_bitwise(self):
        ds = gen_appendixc(50, 9)
        hp = HyperParams(eta_global=0.05, eta_local=0.05)
        a = run_fedres_sgd(ds, (1, 1), hp, 50, 9)
        b = run_fedres_sgd(ds, (1, 1), hp, 50, 9)
        assert all(x.loss == y.loss and x.prediction == y.prediction for x, y in zip(a.traces, b.traces))
        assert np.all(a.final_global == b.final_global)

    def test_variants_diverge_under_delay(self, rng):
        streams = [scripted_stream(rng, 25, 2, 2) for _ in range(2)]
        ds = dataset_from_streams(streams, 2, [2, 2])
        hp = HyperParams(eta_global=0.1, eta_local=0.1)
        finals = {
            v: run_fedres_sgd(ds, (2, 2), hp, 25, 0, variant=v).final_global
            for v in ("aligned", "misaligned", "asymmetric")
        }
        assert not np.allclose(finals["aligned"], finals["misaligned"])
        assert not np.allclose(finals["aligned"], finals["asymmetric"])

    def test_rejects_unknown_variant(self, rng):
        ds = dataset_from_streams([scripted_stream(rng, 2, 1, 1)], 1, [1])
        with pytest.raises(ConfigError):
            run_fedres_sgd(ds, 0, HyperParams(), 2, 0, variant="bogus")


class TestNumericHealth:
    def test_diverging_run_names_round_and_client(self):
        ds = gen_example2(2, 4, np.full(4, 0.5), 0.0, 200, 0)
        hp = HyperParams(radius=1e300, eta_global=50.0, eta_local=50.0)
        with pytest.raises(InvariantError, match=r"client \d+ .*round \d+"):
            run_fedres_sgd(ds, 0, hp, 200, 0)

    def test_overflowing_loss_is_caught_after_the_loop(self):
        # tiny features and steps keep the models finite while (y - pred)^2 overflows
        stream = [Sample(np.array([1e-10]), np.array([1e-10]), 1e155) for _ in range(3)]
        ds = dataset_from_streams([stream], 1, [1])
        hp = HyperParams(radius=1.0, eta_global=1e-150, eta_local=1e-150)
        with pytest.raises(InvariantError, match="non-finite loss at round 1, client 0"):
            run_fedres_sgd(ds, 0, hp, 3, 0)

    def test_nan_data_is_caught(self, rng):
        streams = [scripted_stream(rng, 6, 2, 2) for _ in range(2)]
        streams[1][3] = Sample(np.array([np.nan, 0.0]), np.zeros(2), 0.0)
        ds = dataset_from_streams(streams, 2, [2, 2])
        with pytest.raises(InvariantError, match=r"round 4, client 1|client 1 .*round 4"):
            run_fedres_sgd(ds, 0, HyperParams(eta_global=0.1, eta_local=0.1), 6, 0)
