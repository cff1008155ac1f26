import numpy as np
import pytest

from fedres.core import HyperParams
from fedres.engine import run_fedres_sgd
from fedres.errors import ConfigError

from conftest import joint_grads, joint_loss, rows_of, stack_rows
from test_sgd import dataset_from_streams, scripted_stream


def one_batch_run(rows, wg, wl):
    """One client, zero delay, one batch round on the (xg, xl, y) `rows`
    from the pair (wg, wl) with unit steps and an inactive ball: the client
    steps on the batch-mean local gradient at (wg, wl), the loss record is
    the batch-mean loss at (wg, new wl), and the server steps on the
    batch-mean global gradient there."""
    ds = dataset_from_streams([stack_rows(rows)])
    hp = HyperParams(radius=1e6, eta_global=1.0, eta_local=1.0)
    return run_fedres_sgd(ds, 0, hp, len(rows), 0, batch_size=len(rows), init_global=wg,
                          init_locals=[wl])


def applied_grads(wg, wl, row):
    """(global gradient, local gradient, stepped local) that one_batch_run
    applies on one (xg, xl, y) row: the local gradient at (wg, wl), the
    global one at (wg, stepped local)."""
    res = one_batch_run([row], wg, wl)
    stepped = res.final_locals[0]
    return wg - res.final_global, wl - stepped, stepped


class TestAggregation:
    def test_singleton_batch_equals_pointwise(self, rng):
        wg, wl = rng.normal(0, 1, 2), rng.normal(0, 1, 2)
        s = rng.normal(0, 1, 2), rng.normal(0, 1, 2), 1.0
        res = one_batch_run([s], wg, wl)
        stepped = res.final_locals[0]
        assert res.loss[0, 0] == joint_loss(wg, stepped, *s)
        assert np.all(res.final_global == wg - joint_grads(wg, stepped, *s)[0])
        assert np.all(stepped == wl - joint_grads(wg, wl, *s)[1])

    def test_duplicated_sample_equals_single(self, rng):
        wg, wl = rng.normal(0, 1, 2), rng.normal(0, 1, 2)
        s = rng.normal(0, 1, 2), rng.normal(0, 1, 2), 0.5
        res = one_batch_run([s, s], wg, wl)
        assert res.loss[0, 0] == pytest.approx(joint_loss(wg, res.final_locals[0], *s), rel=1e-15)

    def test_batch_of_four_matches_direct_mean(self, rng):
        wg, wl = rng.normal(0, 1, 3), rng.normal(0, 1, 2)
        batch = [
            (rng.normal(0, 1, 3), rng.normal(0, 1, 2), float(rng.normal()))
            for _ in range(4)
        ]
        res = one_batch_run(batch, wg, wl)
        stepped = res.final_locals[0]
        assert res.loss[0, 0] == pytest.approx(
            sum(joint_loss(wg, stepped, *s) for s in batch) / 4.0, rel=1e-12
        )
        gg, gl = wg - res.final_global, wl - stepped
        assert gg == pytest.approx(
            sum(joint_grads(wg, stepped, *s)[0] for s in batch) / 4.0, rel=1e-12
        )
        assert gl == pytest.approx(sum(joint_grads(wg, wl, *s)[1] for s in batch) / 4.0, rel=1e-12)

    def test_wrong_length_rejected(self, rng):
        ds = dataset_from_streams([(np.ones((2, 1)), np.ones((2, 1)), np.ones(2))])
        with pytest.raises(ConfigError):
            run_fedres_sgd(ds, 0, HyperParams(), 2, 0, batch_size=3)
        with pytest.raises(ConfigError):
            run_fedres_sgd(ds, 0, HyperParams(), 2, 0, batch_size=0)


class TestBatchedRuns:
    def test_batch_size_one_is_bit_identical_to_unbatched(self, rng):
        streams = [scripted_stream(rng, 12, 2, 2) for _ in range(2)]
        ds = dataset_from_streams(streams)
        hp = HyperParams(eta_global=0.1, eta_local=0.1)
        a = run_fedres_sgd(ds, (1, 2), hp, 12, 0, batch_size=1)
        b = run_fedres_sgd(ds, (1, 2), hp, 12, 0)
        assert np.array_equal(a.loss, b.loss) and np.array_equal(a.prediction, b.prediction)
        assert np.all(a.final_global == b.final_global)

    def test_full_horizon_batch_is_one_full_gradient_step(self, rng):
        rounds = 8
        streams = [scripted_stream(rng, rounds, 2, 2)]
        ds = dataset_from_streams(streams)
        eta = 0.2
        hp = HyperParams(radius=50.0, eta_global=eta, eta_local=eta)
        res = run_fedres_sgd(ds, 0, hp, rounds, 0, batch_size=rounds)
        assert res.rounds == 1 and res.loss.size == 1

        batch = rows_of(streams[0])
        zeros = np.zeros(2)
        gl = np.mean(np.stack([joint_grads(zeros, zeros, *s)[1] for s in batch]), axis=0)
        wl = zeros - eta * gl
        gg = np.mean(
            np.stack(
                [2.0 * (float(zeros @ xg) + float(wl @ xl) - y) * xg for xg, xl, y in batch]
            ),
            axis=0,
        )
        assert np.all(res.final_locals[0] == wl)
        assert np.all(res.final_global == -eta * gg)

    def test_fetch_count_is_rounds_over_batch(self, rng):
        rounds = 24
        streams = [scripted_stream(rng, rounds, 2, 1) for _ in range(2)]
        ds = dataset_from_streams(streams)
        hp = HyperParams(eta_global=0.1, eta_local=0.1)
        for b in (1, 2, 4, 8):
            res = run_fedres_sgd(ds, (3, 2), hp, rounds, 0, batch_size=b)
            assert res.fetch_counts == [rounds // b, rounds // b]

    def test_indivisible_batch_rejected(self, rng):
        ds = dataset_from_streams([scripted_stream(rng, 10, 1, 1)])
        with pytest.raises(ConfigError):
            run_fedres_sgd(ds, 0, HyperParams(), 10, 0, batch_size=3)

    def test_batched_trace_carries_aggregated_loss(self, rng):
        rounds, b = 8, 4
        streams = [scripted_stream(rng, rounds, 2, 2)]
        ds = dataset_from_streams(streams)
        hp = HyperParams(eta_global=0.05, eta_local=0.05)
        res = run_fedres_sgd(ds, 0, hp, rounds, 0, batch_size=b)
        for k, loss in enumerate(res.traces):
            prediction, label = res.prediction.reshape(-1, b)[k], res.label.reshape(-1, b)[k]
            assert len(prediction) == b
            per_sample = [(y - p) ** 2 for y, p in zip(label.tolist(), prediction.tolist())]
            assert loss == pytest.approx(float(np.mean(per_sample)), rel=1e-15)
