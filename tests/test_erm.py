import numpy as np
import pytest

from fedres.channel import DelayConfig
from fedres.core import HyperParams, Sample
from fedres.datagen import gen_appendixc
from fedres.engine import build_streams
from fedres.erm import ErmSystem, run_fedres_erm, run_fictitious_play
from fedres.errors import ConfigError
from fedres.solver import BASE_RIDGE

from conftest import ls_objective, pgd_ls_oracle
from erm_oracle import ArchiveClient, ArchiveServer, run_oracle
from test_sgd import dataset_from_streams, scripted_stream


def ridge_solve(gram, rhs):
    return np.linalg.solve(gram + BASE_RIDGE * np.eye(len(rhs)), rhs)


def erm_run(streams, d_global, delays, radius, **inits):
    """run_fedres_erm on scripted per-client streams."""
    ds = dataset_from_streams(streams, d_global, [len(st[0].x_local) for st in streams])
    return run_fedres_erm(ds, delays, HyperParams(radius=radius), len(streams[0]), 0, **inits)


class TestErmClientRound:
    def test_empty_archive_keeps_initial_local(self):
        s = Sample(np.ones(2), np.ones(2), 1.0)
        res = erm_run([[s]], 2, 0, 100.0)
        assert np.all(res.final_locals[0] == np.zeros(2))

    def test_one_archived_sample_is_1d_least_squares(self, rng):
        s1 = Sample(rng.normal(0, 1, 2), np.array([2.0]), 3.0)
        s2 = Sample(np.zeros(2), np.zeros(1), 0.0)
        # beta = 2: both rounds fetch the zero initial global model
        res = erm_run([[s1, s2]], 2, (0, 2), 100.0)
        assert res.final_locals[0] == pytest.approx([3.0 / 2.0], rel=1e-6)

    def test_archive_objective_matches_pgd_oracle(self, rng):
        fetched = rng.normal(0, 1, 3)
        samples = [
            Sample(rng.normal(0, 1, 3), rng.normal(0, 1, 2), float(rng.normal(0, 2)))
            for _ in range(5)
        ]
        # beta = 6: every fetch through round 6 returns the initial global
        # model, and round 6 solves over the 5 archived samples
        res = erm_run([samples + samples[:1]], 3, (0, 6), 1.0, init_global=fetched)
        rows = np.stack([s.x_local for s in samples[:5]])
        targets = np.array([s.y - fetched @ s.x_global for s in samples[:5]])
        _, pgd_obj = pgd_ls_oracle(rows, targets, 1.0, iters=100_000)
        assert ls_objective(rows, targets, res.final_locals[0]) <= pgd_obj + 1e-8


class TestErmServerRound:
    def test_no_data_keeps_initial_global(self, rng):
        # alpha = 5: nothing reaches the server in round 1
        streams = [scripted_stream(rng, 1, 3, 2) for _ in range(2)]
        res = erm_run(streams, 3, (5, 0), 100.0)
        assert np.all(res.final_global == np.zeros(3))

    def test_zero_locals_reduce_to_global_ls(self, rng):
        # zero local features: every local model predicts zero
        samples = [
            Sample(rng.normal(0, 1, 2), np.zeros(2), float(rng.normal(0, 2)))
            for _ in range(4)
        ]
        res = erm_run([samples], 2, 0, 1.0)
        rows = np.stack([s.x_global for s in samples])
        targets = np.array([s.y for s in samples])
        _, pgd_obj = pgd_ls_oracle(rows, targets, 1.0, iters=100_000)
        assert ls_objective(rows, targets, res.final_global) <= pgd_obj + 1e-8

    def test_two_clients_objective_matches_pgd_oracle(self, rng):
        archive = [
            [Sample(rng.normal(0, 1, 2), rng.normal(0, 1, 1), float(rng.normal(0, 2)))
             for _ in range(3)]
            for _ in range(2)
        ]
        # alpha = 0: the last solve applies the local models sent that round
        res = erm_run(archive, 2, 0, 1.0)
        wl = res.final_locals
        rows = np.concatenate([np.stack([s.x_global for s in archive[i]]) for i in range(2)])
        targets = np.concatenate(
            [np.array([s.y - wl[i] @ s.x_local for s in archive[i]]) for i in range(2)]
        )
        _, pgd_obj = pgd_ls_oracle(rows, targets, 1.0, iters=100_000)
        assert ls_objective(rows, targets, res.final_global) <= pgd_obj + 1e-8


class TestFrozenCounterpartVariant:
    def test_first_solves_coincide_with_erm(self, rng):
        """With one archived sample whose frozen global equals the current
        fetch, both variants solve the identical problem (exact mode is
        bit-identical)."""
        fetched = rng.normal(0, 1, 2)
        s = Sample(rng.normal(0, 1, 2), rng.normal(0, 1, 2), 1.5)
        out = {}
        for variant in ("erm", "fictitious"):
            client = ArchiveClient(2, 100.0, variant)
            client.round(fetched, s)  # frozen global for s == fetched
            client.round(fetched, Sample(np.zeros(2), np.zeros(2), 0.0))
            out[variant] = client.wl
        assert np.all(out["erm"] == out["fictitious"])

    def test_current_counterparts_make_paths_bit_identical(self, rng):
        """Forcing every archived counterpart to the current one removes the
        only difference between the two code paths."""
        fetched = rng.normal(0, 1, 3)
        samples = [
            Sample(rng.normal(0, 1, 3), rng.normal(0, 1, 2), float(rng.normal(0, 1)))
            for _ in range(6)
        ]
        clients = {v: ArchiveClient(2, 2.0, v) for v in ("erm", "fictitious")}
        for v, client in clients.items():
            for s in samples:
                client.round(fetched, s)  # constant fetch = archives already current
            client.round(fetched, samples[0])
        assert np.all(clients["erm"].wl == clients["fictitious"].wl)

        # server side: frozen local predictions recomputed from the latest model
        wl_latest = rng.normal(0, 1, 2)
        servers = {v: ArchiveServer(1, 3, 2.0, v) for v in ("erm", "fictitious")}
        for s in samples:
            for server in servers.values():
                server.round([(0, s, wl_latest)])
        assert np.all(servers["erm"].wg == servers["fictitious"].wg)

    def test_three_round_scripted_run_matches_hand_transcription(self, rng):
        rounds = 3
        streams = [scripted_stream(rng, rounds, 2, 2)]
        ds = dataset_from_streams(streams, 2, [2])
        res = run_fictitious_play(ds, 0, HyperParams(), rounds, 0)

        # hand-rolled frozen-counterpart recursion, zero delay
        stream = streams[0]
        snapshots = {1: np.zeros(2)}
        frozen_g, frozen_lp, archive = [], [], []
        wl = np.zeros(2)
        wg = np.zeros(2)
        losses = []
        for t in range(1, rounds + 1):
            fetched = snapshots[t]
            if archive:
                gram = sum(np.outer(x.x_local, x.x_local) for x in archive)
                rhs = sum(
                    (x.y - g @ x.x_global) * x.x_local for x, g in zip(archive, frozen_g)
                )
                wl = ridge_solve(gram, rhs)
            s = stream[t - 1]
            losses.append((s.y - fetched @ s.x_global - wl @ s.x_local) ** 2)
            archive.append(s)
            frozen_g.append(fetched)
            frozen_lp.append(float(wl @ s.x_local))
            gram_g = sum(np.outer(x.x_global, x.x_global) for x in archive)
            rhs_g = sum((x.y - lp) * x.x_global for x, lp in zip(archive, frozen_lp))
            wg = ridge_solve(gram_g, rhs_g)
            snapshots[t + 1] = wg
        assert [tr.loss for tr in res.traces] == pytest.approx(losses, rel=1e-9)
        assert res.final_global == pytest.approx(wg, rel=1e-9)


class TestComposedRuns:
    def test_first_round_uses_initial_models(self, rng):
        streams = [scripted_stream(rng, 1, 2, 2) for _ in range(2)]
        ds = dataset_from_streams(streams, 2, [2, 2])
        init_g = np.array([0.2, -0.1])
        init_l = [np.array([0.3, 0.0]), np.array([-0.4, 0.5])]
        res = run_fedres_erm(ds, 0, HyperParams(), 1, 0, init_global=init_g, init_locals=init_l)
        for tr in res.traces:
            s = streams[tr.client_id][0]
            expected = (s.y - init_g @ s.x_global - init_l[tr.client_id] @ s.x_local) ** 2
            assert tr.loss == pytest.approx(expected, rel=1e-12)

    def test_zero_delay_matches_sequential_alternating_oracle(self, rng):
        rounds = 60
        streams = [scripted_stream(rng, rounds, 2, 2)]
        ds = dataset_from_streams(streams, 2, [2])
        res = run_fedres_erm(ds, 0, HyperParams(), rounds, 0)

        stream = streams[0]
        gram_l = np.zeros((2, 2))
        gram_g = np.zeros((2, 2))
        cross = np.zeros((2, 2))  # xg xl^T
        gy = np.zeros(2)
        ly = np.zeros(2)
        wg = np.zeros(2)
        wl = np.zeros(2)
        losses = []
        for t, s in enumerate(stream, 1):
            if t > 1:
                wl = ridge_solve(gram_l, ly - cross.T @ wg)
            losses.append((s.y - wg @ s.x_global - wl @ s.x_local) ** 2)
            gram_l += np.outer(s.x_local, s.x_local)
            gram_g += np.outer(s.x_global, s.x_global)
            cross += np.outer(s.x_global, s.x_local)
            gy += s.y * s.x_global
            ly += s.y * s.x_local
            wg = ridge_solve(gram_g, gy - cross @ wl)
        # early rank-deficient solves have condition ~1/ridge, so one-ulp
        # float-path differences between oracle and engine surface at ~1e-7
        assert [tr.loss for tr in res.traces] == pytest.approx(losses, rel=1e-5, abs=1e-10)
        assert res.final_global == pytest.approx(wg, rel=1e-8)

    def test_fast_path_tracks_exact_rebuild(self, rng):
        rounds = 40
        streams = [scripted_stream(rng, rounds, 2, 2) for _ in range(2)]
        ds = dataset_from_streams(streams, 2, [2, 2])
        for runner in (run_fedres_erm, run_fictitious_play):
            fast = runner(ds, (1, 1), HyperParams(), rounds, 0)
            variant = "erm" if runner is run_fedres_erm else "fictitious"
            slow = run_oracle(ds, (1, 1), HyperParams(), rounds, 0, variant)
            assert fast.final_global == pytest.approx(slow.final_global, rel=1e-9, abs=1e-12)
            assert [tr.loss for tr in fast.traces] == pytest.approx(
                [tr.loss for tr in slow.traces], rel=1e-8, abs=1e-12
            )

    def test_within_round_alternating_descent(self, rng):
        rounds = 25
        stream = scripted_stream(rng, rounds, 2, 2)
        ds = dataset_from_streams([stream], 2, [2])
        system = ErmSystem(2, [2], DelayConfig.uniform(1), HyperParams(radius=10.0),
                           build_streams(ds, rounds, 0))
        archive = []

        def total(g, w, upto):
            return sum((x.y - g @ x.x_global - w @ x.x_local) ** 2 for x in archive[:upto])

        for t, s in enumerate(stream, 1):
            wg, w_prev = system.wg, system.wl[0].copy()  # zero delay: round t fetches wg
            system.step()
            wl = system.wl[0].copy()
            if t > 1:
                assert total(wg, wl, t - 1) <= total(wg, w_prev, t - 1) + 1e-6
            archive.append(s)
            assert total(system.wg, wl, t) <= total(wg, wl, t) + 1e-6

    def test_monotone_improvement_on_realizable_data(self, rng):
        wg_true, wl_true = np.array([0.4, -0.2]), np.array([0.1, 0.6])
        stream = [
            Sample(x := rng.normal(0, 1, 2), z := rng.normal(0, 1, 2), float(wg_true @ x + wl_true @ z))
            for _ in range(512)
        ]
        ds = dataset_from_streams([stream], 2, [2])
        res = run_fedres_erm(ds, 0, HyperParams(), 512, 0)
        losses = np.array([tr.loss for tr in res.traces])
        assert losses[:64].mean() > losses.mean()

    def test_heterogeneous_delays_rejected(self, rng):
        streams = [scripted_stream(rng, 2, 2, 2) for _ in range(2)]
        ds = dataset_from_streams(streams, 2, [2, 2])
        with pytest.raises(ConfigError):
            run_fedres_erm(ds, ((0, 1), (0, 0)), HyperParams(), 2, 0)


class TestStuckDynamics:
    def test_frozen_variant_trails_erm_on_coupled_stream(self):
        # short-horizon version of the three-way comparison
        init = np.array([1.0, 0.0])
        dists = {}
        for runner in (run_fedres_erm, run_fictitious_play):
            d = []
            for seed in range(6):
                ds = gen_appendixc(2000, seed)
                r = runner(ds, 0, HyperParams(), 2000, seed, init_global=init, init_locals=[init])
                d.append(np.linalg.norm(r.final_global - np.array([0.0, 1.0])))
            dists[runner.__name__] = np.mean(d)
        assert dists["run_fedres_erm"] < 0.05
        assert dists["run_fictitious_play"] > dists["run_fedres_erm"] + 0.1
