import numpy as np

from fedres.baselines import central_view, independent_view
from fedres.core import HyperParams
from fedres.datagen import gen_example2
from fedres.engine import run_fedres_sgd
from fedres.harness import ExperimentConfig, dispatch

from conftest import ball_project_oracle, rows_of
from test_sgd import dataset_from_streams, scripted_stream


def columns_equal(a, b):
    return np.array_equal(a.loss, b.loss) and np.array_equal(a.prediction, b.prediction)


class TestSharedEngineReductions:
    def test_central_is_engine_with_empty_local_blocks(self, rng):
        streams = [scripted_stream(rng, 15, 3, 2) for _ in range(3)]
        ds = dataset_from_streams(streams)
        hp = HyperParams(eta_global=0.1, eta_local=0.1)
        cfg = ExperimentConfig(algo="central", clients=3, alpha=2, beta=1, rounds=15,
                               eta_global=0.1, eta_local=0.1)
        a = dispatch(cfg, central_view(ds), 0)
        b = run_fedres_sgd(central_view(ds), (2, 1), hp, 15, 0)
        assert columns_equal(a, b)
        assert np.all(a.final_global == b.final_global)
        assert all(len(wl) == 0 for wl in a.final_locals)

    def test_independent_is_engine_with_empty_global_block(self, rng):
        streams = [scripted_stream(rng, 15, 3, 2) for _ in range(2)]
        ds = dataset_from_streams(streams)
        hp = HyperParams(eta_global=0.1, eta_local=0.1)
        cfg = ExperimentConfig(algo="independent", rounds=15, eta_global=0.1, eta_local=0.1)
        a = dispatch(cfg, independent_view(ds), 0)
        b = run_fedres_sgd(independent_view(ds), 0, hp, 15, 0)
        assert columns_equal(a, b)
        assert len(a.final_global) == 0
        assert all(len(wl) == 5 for wl in a.final_locals)

    def test_identical_data_gives_identical_trajectories(self, rng):
        shared = scripted_stream(rng, 20, 2, 1)
        ds = dataset_from_streams([shared, tuple(a.copy() for a in shared)])
        res = run_fedres_sgd(independent_view(ds), 0, HyperParams(eta_global=0.1, eta_local=0.1),
                             20, 0)
        assert res.loss[:, 0].tolist() == res.loss[:, 1].tolist()
        assert np.all(res.final_locals[0] == res.final_locals[1])

    def test_independent_matches_standalone_sgd_loop(self, rng):
        stream = scripted_stream(rng, 25, 2, 2)
        ds = dataset_from_streams([stream])
        eta, radius = 0.15, 3.0
        hp = HyperParams(radius=radius, eta_global=eta, eta_local=eta)
        res = run_fedres_sgd(independent_view(ds), 0, hp, 25, 0)

        w = np.zeros(4)
        losses = []
        for xg, xl, y in rows_of(stream):
            x = np.concatenate([xg, xl])
            grad = 2.0 * (w @ x - y) * x
            w = ball_project_oracle(w - eta * grad, radius)
            losses.append((y - float(w @ x)) ** 2)
        assert res.loss.ravel().tolist() == losses
        assert np.all(res.final_locals[0] == w)


class TestCentralVsResidualSeparation:
    def test_sign_split_population_separates(self):
        # small version of the irreducible-loss phenomenon
        clients, dim, rounds = 4, 2, 800
        v = np.array([1.0, 0.0])
        ds = gen_example2(clients, dim, v, noise=0.0, rounds=rounds, seed=5)
        hp = HyperParams(eta_global=0.02, eta_local=0.02)
        central = run_fedres_sgd(central_view(ds), 0, hp, rounds, 5)
        fedres = run_fedres_sgd(ds, 0, hp, rounds, 5)
        assert central.terminal_mean_loss() > 0.5  # stuck near E[(v.x)^2] = 1
        assert fedres.terminal_mean_loss() < 0.05

    def test_warmup_rounds_leave_central_model_unchanged(self, rng):
        streams = [scripted_stream(rng, 3, 2, 1)]
        ds = dataset_from_streams(streams)
        res = run_fedres_sgd(central_view(ds), (5, 0), HyperParams(eta_global=0.5, eta_local=0.5),
                             3, 0)
        assert np.all(res.final_global == np.zeros(2))


class TestRoutedViews:
    def test_views_transform_test_sets(self, rng):
        s = np.array([[1.0, 2.0]]), np.array([[3.0]]), np.array([-1.0])
        ds = dataset_from_streams([s])
        ds.clients[0].test = s
        ind_g, ind_l, ind_y = independent_view(ds).test_sets()[0]
        cen_g, cen_l, cen_y = central_view(ds).test_sets()[0]
        assert np.all(ind_l == np.array([[1.0, 2.0, 3.0]])) and ind_g.shape == (1, 0)
        assert np.all(cen_g == np.array([[1.0, 2.0]])) and cen_l.shape == (1, 0)
        assert ind_y.tolist() == cen_y.tolist() == [-1.0]
