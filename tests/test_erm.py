import gc
import weakref

import numpy as np
import pytest

from fedres.channel import DelayConfig
from fedres.core import HyperParams
from fedres.datagen import gen_appendixc
from fedres import erm
from fedres.engine import SgdSystem, build_streams
from fedres.erm import BLOCK, ErmSystem, run_fedres_erm, run_fictitious_play
from fedres.errors import ConfigError
from fedres.solver import BASE_RIDGE

from conftest import ls_objective, pgd_ls_oracle, rows_of, stack_rows
from erm_oracle import ArchiveClient, ArchiveServer, run_oracle
from test_sgd import NON_FINITE_INITS, dataset_from_streams, scripted_stream


def ridge_solve(gram, rhs):
    return np.linalg.solve(gram + BASE_RIDGE * np.eye(len(rhs)), rhs)


def erm_run(streams, delays, radius, **inits):
    """run_fedres_erm on scripted per-client lists of (xg, xl, y) rows."""
    blocks = [stack_rows(st) for st in streams]
    ds = dataset_from_streams(blocks)
    return run_fedres_erm(ds, delays, HyperParams(radius=radius), len(streams[0]), 0, **inits)


class TestErmClientRound:
    def test_empty_archive_keeps_initial_local(self):
        s = np.ones(2), np.ones(2), 1.0
        res = erm_run([[s]], 0, 100.0)
        assert np.all(res.final_locals[0] == np.zeros(2))

    def test_one_archived_sample_is_1d_least_squares(self, rng):
        s1 = rng.normal(0, 1, 2), np.array([2.0]), 3.0
        s2 = np.zeros(2), np.zeros(1), 0.0
        # beta = 2: both rounds fetch the zero initial global model
        res = erm_run([[s1, s2]], (0, 2), 100.0)
        assert res.final_locals[0] == pytest.approx([3.0 / 2.0], rel=1e-6)

    def test_archive_objective_matches_pgd_oracle(self, rng):
        fetched = rng.normal(0, 1, 3)
        samples = [
            (rng.normal(0, 1, 3), rng.normal(0, 1, 2), float(rng.normal(0, 2)))
            for _ in range(5)
        ]
        # beta = 6: every fetch through round 6 returns the initial global
        # model, and round 6 solves over the 5 archived samples
        res = erm_run([samples + samples[:1]], (0, 6), 1.0, init_global=fetched)
        rows = np.stack([xl for _, xl, _ in samples[:5]])
        targets = np.array([y - fetched @ xg for xg, _, y in samples[:5]])
        _, pgd_obj = pgd_ls_oracle(rows, targets, 1.0, iters=100_000)
        assert ls_objective(rows, targets, res.final_locals[0]) <= pgd_obj + 1e-8


class TestErmServerRound:
    def test_no_data_keeps_initial_global(self, rng):
        # alpha = 5: nothing reaches the server in round 1
        streams = [rows_of(scripted_stream(rng, 1, 3, 2)) for _ in range(2)]
        res = erm_run(streams, (5, 0), 100.0)
        assert np.all(res.final_global == np.zeros(3))

    def test_zero_locals_reduce_to_global_ls(self, rng):
        # zero local features: every local model predicts zero
        samples = [
            (rng.normal(0, 1, 2), np.zeros(2), float(rng.normal(0, 2)))
            for _ in range(4)
        ]
        res = erm_run([samples], 0, 1.0)
        rows = np.stack([xg for xg, _, _ in samples])
        targets = np.array([y for _, _, y in samples])
        _, pgd_obj = pgd_ls_oracle(rows, targets, 1.0, iters=100_000)
        assert ls_objective(rows, targets, res.final_global) <= pgd_obj + 1e-8

    def test_two_clients_objective_matches_pgd_oracle(self, rng):
        archive = [
            [(rng.normal(0, 1, 2), rng.normal(0, 1, 1), float(rng.normal(0, 2)))
             for _ in range(3)]
            for _ in range(2)
        ]
        # alpha = 0: the last solve applies the local models sent that round
        res = erm_run(archive, 0, 1.0)
        wl = res.final_locals
        rows = np.concatenate([np.stack([xg for xg, _, _ in archive[i]]) for i in range(2)])
        targets = np.concatenate(
            [np.array([y - wl[i] @ xl for _, xl, y in archive[i]]) for i in range(2)]
        )
        _, pgd_obj = pgd_ls_oracle(rows, targets, 1.0, iters=100_000)
        assert ls_objective(rows, targets, res.final_global) <= pgd_obj + 1e-8


class TestFrozenCounterpartVariant:
    def test_first_solves_coincide_with_erm(self, rng):
        """With one archived sample whose frozen global equals the current
        fetch, both variants solve the identical problem (exact mode is
        bit-identical)."""
        fetched = rng.normal(0, 1, 2)
        s = rng.normal(0, 1, 2), rng.normal(0, 1, 2), 1.5
        out = {}
        for variant in ("erm", "fictitious"):
            client = ArchiveClient(2, 100.0, variant)
            client.round(fetched, s)  # frozen global for s == fetched
            client.round(fetched, (np.zeros(2), np.zeros(2), 0.0))
            out[variant] = client.wl
        assert np.all(out["erm"] == out["fictitious"])

    def test_current_counterparts_make_paths_bit_identical(self, rng):
        """Forcing every archived counterpart to the current one removes the
        only difference between the two code paths."""
        fetched = rng.normal(0, 1, 3)
        samples = [
            (rng.normal(0, 1, 3), rng.normal(0, 1, 2), float(rng.normal(0, 1)))
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
        ds = dataset_from_streams(streams)
        res = run_fictitious_play(ds, 0, HyperParams(), rounds, 0)

        # hand-rolled frozen-counterpart recursion, zero delay
        stream = rows_of(streams[0])
        snapshots = {1: np.zeros(2)}
        frozen_g, frozen_lp, archive = [], [], []
        wl = np.zeros(2)
        wg = np.zeros(2)
        losses = []
        for t in range(1, rounds + 1):
            fetched = snapshots[t]
            if archive:
                gram = sum(np.outer(xl, xl) for _, xl, _ in archive)
                rhs = sum((y - g @ xg) * xl for (xg, xl, y), g in zip(archive, frozen_g))
                wl = ridge_solve(gram, rhs)
            xg, xl, y = stream[t - 1]
            losses.append((y - fetched @ xg - wl @ xl) ** 2)
            archive.append((xg, xl, y))
            frozen_g.append(fetched)
            frozen_lp.append(float(wl @ xl))
            gram_g = sum(np.outer(xg, xg) for xg, _, _ in archive)
            rhs_g = sum((y - lp) * xg for (xg, _, y), lp in zip(archive, frozen_lp))
            wg = ridge_solve(gram_g, rhs_g)
            snapshots[t + 1] = wg
        assert res.loss.ravel().tolist() == pytest.approx(losses, rel=1e-9)
        assert res.final_global == pytest.approx(wg, rel=1e-9)


class TestComposedRuns:
    def test_first_round_uses_initial_models(self, rng):
        streams = [scripted_stream(rng, 1, 2, 2) for _ in range(2)]
        ds = dataset_from_streams(streams)
        init_g = np.array([0.2, -0.1])
        init_l = [np.array([0.3, 0.0]), np.array([-0.4, 0.5])]
        res = run_fedres_erm(ds, 0, HyperParams(), 1, 0, init_global=init_g, init_locals=init_l)
        for i, stream in enumerate(streams):
            xg, xl, y = rows_of(stream)[0]
            expected = (y - init_g @ xg - init_l[i] @ xl) ** 2
            assert res.loss[0, i] == pytest.approx(expected, rel=1e-12)

    def test_zero_delay_matches_sequential_alternating_oracle(self, rng):
        rounds = 60
        streams = [scripted_stream(rng, rounds, 2, 2)]
        ds = dataset_from_streams(streams)
        res = run_fedres_erm(ds, 0, HyperParams(), rounds, 0)

        stream = rows_of(streams[0])
        gram_l = np.zeros((2, 2))
        gram_g = np.zeros((2, 2))
        cross = np.zeros((2, 2))  # xg xl^T
        gy = np.zeros(2)
        ly = np.zeros(2)
        wg = np.zeros(2)
        wl = np.zeros(2)
        losses = []
        for t, (xg, xl, y) in enumerate(stream, 1):
            if t > 1:
                wl = ridge_solve(gram_l, ly - cross.T @ wg)
            losses.append((y - wg @ xg - wl @ xl) ** 2)
            gram_l += np.outer(xl, xl)
            gram_g += np.outer(xg, xg)
            cross += np.outer(xg, xl)
            gy += y * xg
            ly += y * xl
            wg = ridge_solve(gram_g, gy - cross @ wl)
        # early rank-deficient solves have condition ~1/ridge, so one-ulp
        # float-path differences between oracle and engine surface at ~1e-7
        assert res.loss.ravel().tolist() == pytest.approx(losses, rel=1e-5, abs=1e-10)
        assert res.final_global == pytest.approx(wg, rel=1e-8)

    def test_fast_path_tracks_exact_rebuild(self, rng):
        rounds = 40
        streams = [scripted_stream(rng, rounds, 2, 2) for _ in range(2)]
        ds = dataset_from_streams(streams)
        for runner in (run_fedres_erm, run_fictitious_play):
            fast = runner(ds, (1, 1), HyperParams(), rounds, 0)
            variant = "erm" if runner is run_fedres_erm else "fictitious"
            slow = run_oracle(ds, (1, 1), HyperParams(), rounds, 0, variant)
            assert fast.final_global == pytest.approx(slow.final_global, rel=1e-9, abs=1e-12)
            assert fast.loss.ravel().tolist() == pytest.approx(
                slow.loss.ravel().tolist(), rel=1e-8, abs=1e-12
            )

    def test_within_round_alternating_descent(self, rng):
        rounds = 25
        stream = scripted_stream(rng, rounds, 2, 2)
        ds = dataset_from_streams([stream])
        system = ErmSystem.build(ds, DelayConfig.uniform(1), HyperParams(radius=10.0), rounds, 0)
        archive = []

        def total(g, w, upto):
            return sum((y - g @ xg - w @ xl) ** 2 for xg, xl, y in archive[:upto])

        for t, s in enumerate(rows_of(stream), 1):
            wg, w_prev = system.wg.copy(), system.wl[0].copy()  # zero delay: round t fetches wg
            system.step()
            wl = system.wl[0].copy()
            if t > 1:
                assert total(wg, wl, t - 1) <= total(wg, w_prev, t - 1) + 1e-6
            archive.append(s)
            assert total(system.wg, wl, t) <= total(wg, wl, t) + 1e-6

    def test_monotone_improvement_on_realizable_data(self, rng):
        wg_true, wl_true = np.array([0.4, -0.2]), np.array([0.1, 0.6])
        stream = stack_rows(
            (x := rng.normal(0, 1, 2), z := rng.normal(0, 1, 2), float(wg_true @ x + wl_true @ z))
            for _ in range(512)
        )
        ds = dataset_from_streams([stream])
        res = run_fedres_erm(ds, 0, HyperParams(), 512, 0)
        losses = res.loss.ravel()
        assert losses[:64].mean() > losses.mean()

    def test_heterogeneous_delays_rejected(self, rng):
        streams = [scripted_stream(rng, 2, 2, 2) for _ in range(2)]
        ds = dataset_from_streams(streams)
        with pytest.raises(ConfigError):
            run_fedres_erm(ds, ((0, 1), (0, 0)), HyperParams(), 2, 0)


    @pytest.mark.parametrize("system", (ErmSystem, SgdSystem))
    def test_systems_check_client_count_and_local_dimension(self, rng, system):
        """Both learners, on the shared skeleton, reject delays for another
        client count, local models of another dimension, and streams whose
        local or global block is wider than client 0's (naming the client)."""
        streams = [scripted_stream(rng, 4, 2, 2) for _ in range(2)]
        blocks = build_streams(dataset_from_streams(streams), 4, 0)
        with pytest.raises(ConfigError):
            system(blocks, DelayConfig.uniform(3, 1, 1), HyperParams())
        with pytest.raises(ConfigError):
            system(blocks, DelayConfig.uniform(2, 1, 1), HyperParams(),
                   init_locals=[np.zeros(2), np.zeros(3)])
        for odd in (scripted_stream(rng, 4, 2, 3), scripted_stream(rng, 4, 3, 2)):
            with pytest.raises(ConfigError, match="client 1"):
                system.build(dataset_from_streams([streams[0], odd]), (1, 1), HyperParams(), 4, 0)

    @pytest.mark.parametrize("init_global, init_local", NON_FINITE_INITS)
    @pytest.mark.parametrize("runner", (run_fedres_erm, run_fictitious_play))
    def test_non_finite_initial_models_are_config_errors(self, runner, init_global, init_local):
        """inf or NaN in the global or a local model is bad input, refused
        before round 1 (not a non-finite loss after it)."""
        with pytest.raises(ConfigError, match="initial models must be finite"):
            runner(gen_appendixc(50, 0), 0, HyperParams(), 50, 0,
                   init_global=np.array(init_global), init_locals=[np.array(init_local)])

    def test_exact_learners_reject_batches(self, rng):
        ds = dataset_from_streams([scripted_stream(rng, 4, 2, 2)])
        with pytest.raises(ConfigError):
            ErmSystem.build(ds, 0, HyperParams(), 4, 0, batch_size=2)


class TestPrefixSums:
    def test_tables_hold_one_block(self, rng, monkeypatch):
        """Memory is O(BLOCK): at a horizon of several blocks, every
        prefix-sum table covers at most BLOCK + 1 stream rows."""
        rounds, clients = 3 * BLOCK + 17, 2
        streams = [scripted_stream(rng, rounds, 2, 2) for _ in range(clients)]
        ds = dataset_from_streams(streams)
        # per side, (entries, entries per stream row) of each table: the
        # carried sum followed by a block's terms
        tables = {"client": [], "server": []}

        def recorded(side, terms):
            def wrapped(variant, xg, xl, y):
                out = terms(variant, xg, xl, y)
                if len(y):
                    tables[side].append([(len(t) + 1, len(t) // len(y)) for t in out])
                return out
            return wrapped

        monkeypatch.setattr(erm, "_client_terms", recorded("client", erm._client_terms))
        monkeypatch.setattr(erm, "_server_terms", recorded("server", erm._server_terms))
        for variant in ("erm", "fictitious"):
            system = ErmSystem.build(ds, DelayConfig.uniform(clients, 3, 2), HyperParams(), rounds,
                                     0, variant=variant)
            for _ in range(rounds):
                system.step()
            for side, blocks in tables.items():
                assert all(entries <= BLOCK * stride + 1
                           for block in blocks for entries, stride in block)
                assert len(blocks) >= 3, side  # several blocks were built
                blocks.clear()

    def test_finished_system_is_freed_by_reference_counting(self, rng):
        """No reference cycle holds a finished system's arrays until the
        cycle collector happens to run (a pool worker's memory would grow
        with every rollout)."""
        streams = [scripted_stream(rng, 5, 2, 2)]
        ds = dataset_from_streams(streams)
        gc.disable()
        try:
            for variant in ("erm", "fictitious"):
                system = ErmSystem.build(ds, DelayConfig.uniform(1, 1, 1), HyperParams(), 5, 0,
                                         variant=variant)
                for _ in range(5):
                    system.step()
                ref = weakref.ref(system)
                del system
                assert ref() is None
        finally:
            gc.enable()

    def test_block_size_does_not_change_bits(self, rng, monkeypatch):
        """Block boundaries at every row, and straddled differently by the
        client and the server (alpha > 0), give the bits of one block."""
        rounds = 30
        streams = [scripted_stream(rng, rounds, 3, 2) for _ in range(3)]
        ds = dataset_from_streams(streams)
        for runner in (run_fedres_erm, run_fictitious_play):
            want = runner(ds, (3, 2), HyperParams(radius=0.6), rounds, 0)
            for block in (1, 2, 7):
                monkeypatch.setattr(erm, "BLOCK", block)
                got = runner(ds, (3, 2), HyperParams(radius=0.6), rounds, 0)
                monkeypatch.undo()
                assert got.prediction.tobytes() == want.prediction.tobytes()
                assert got.final_global.tobytes() == want.final_global.tobytes()
                assert np.array(got.final_locals).tobytes() == np.array(want.final_locals).tobytes()


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
