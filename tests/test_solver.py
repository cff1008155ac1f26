import numpy as np
import pytest

from fedres.baselines import central_view, independent_view
from fedres.core import DEFAULT_RADIUS
from fedres.datagen import gen_appendixc, gen_example2, parse_libsvm, partition_federated
from fedres.engine import build_streams
from fedres.errors import ConfigError
from fedres.harness import compute_regret
from fedres.results import RunResult
from fedres.solver import BASE_RIDGE, alternating_joint_ls, solve_gram

from conftest import ls_objective, pgd_ls_oracle, pgd_ls_oracle_stacked, solve_rows
from joint_ls_oracle import alternating_joint_ls_oracle, client_blocks
from test_datagen import toy_corpus


class TestSolveConstrainedLs:
    """solve_gram on explicit rows, through the conftest solve_rows wrapper."""

    def test_interior_optimum(self):
        w = solve_rows(np.array([[1.0]]), np.array([1.0]), 10.0)
        assert w == pytest.approx([1.0], abs=1e-8)

    def test_one_dim_clamp(self):
        w = solve_rows(np.array([[1.0]]), np.array([2.0]), 1.0)
        assert w == pytest.approx([1.0], abs=1e-8)

    def test_active_constraint_matches_pgd(self):
        rows = np.array([[1.0, 0.0], [1.0, 1.0]])
        targets = np.array([2.0, 0.0])
        w = solve_rows(rows, targets, 1.0)
        _, pgd_obj = pgd_ls_oracle(rows, targets, 1.0, iters=200_000)
        assert np.linalg.norm(w) <= 1.0 + 1e-10
        assert ls_objective(rows, targets, w) <= pgd_obj + 1e-8

    def test_random_problems_beat_pgd_oracle(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 21))
            d = int(rng.integers(1, 6))
            rows = rng.normal(0, 1, (n, d))
            targets = rng.normal(0, 2, n)
            radius = float(rng.uniform(0.1, 2.0))
            w = solve_rows(rows, targets, radius)
            assert np.linalg.norm(w) <= radius + 1e-10
            _, pgd_obj = pgd_ls_oracle(rows, targets, radius, iters=5000)
            assert ls_objective(rows, targets, w) <= pgd_obj + 1e-8

    def test_stacked_pgd_matches_its_loop(self, rng):
        """The padded stack criterion 6 runs agrees with the per-problem loop,
        on the ball and inside it, and on a zero matrix (step 1.0)."""
        problems = [(rng.normal(0, 1, (n, d)), rng.normal(0, 2, n), radius)
                    for n, d, radius in ((1, 1, 0.5), (3, 5, 1.5), (20, 2, 0.1), (7, 3, 100.0),
                                         (2, 4, 100.0), (12, 1, 2.0))]
        problems.append((np.zeros((2, 2)), rng.normal(0, 2, 2), 1.0))
        w, objectives = pgd_ls_oracle_stacked(problems, iters=300)
        for k, (rows, targets, radius) in enumerate(problems):
            w_loop, objective = pgd_ls_oracle(rows, targets, radius, iters=300)
            d = rows.shape[1]
            assert np.abs(w[k, :d] - w_loop).max() <= 1e-12
            assert not w[k, d:].any()
            assert abs(objectives[k] - objective) <= 1e-12


class TestSolveGram:
    def test_matches_explicit_rows(self, rng):
        for _ in range(50):
            rows = rng.normal(0, 1, (8, 3))
            targets = rng.normal(0, 1, 8)
            radius = float(rng.uniform(0.2, 3.0))
            via_gram = solve_gram(rows.T @ rows, rows.T @ targets, radius)
            _, pgd_obj = pgd_ls_oracle(rows, targets, radius, iters=5000)
            assert np.linalg.norm(via_gram) <= radius + 1e-10
            assert ls_objective(rows, targets, via_gram) <= pgd_obj + 1e-8

    def test_zero_dimensional(self):
        for shape in ((), (3,)):
            atb = np.zeros(shape + (0,))
            assert solve_gram(np.zeros(shape + (0, 0)), atb, 1.0) is atb

    def test_stack_matches_per_matrix_calls(self, rng):
        """Each row of a stacked call has the bits of its own call, inside
        the ball and on it; inside, those of np.linalg.solve on the ridged
        matrix."""
        kinds = set()
        for _ in range(40):
            p, d = int(rng.integers(1, 7)), int(rng.integers(1, 5))
            rows = rng.normal(0, 1, (p, 12, d))
            ata = np.einsum("pni,pnj->pij", rows, rows)
            atb = np.einsum("pni,pn->pi", rows, rng.normal(0, 2, (p, 12)))
            radius = float(rng.uniform(0.2, 1.5))
            stacked = solve_gram(ata, atb, radius)
            for i in range(p):
                alone = solve_gram(ata[i], atb[i], radius)
                assert alone.tobytes() == stacked[i].tobytes()
                ridged = ata[i].copy()
                ridged.flat[:: d + 1] += BASE_RIDGE
                public = np.linalg.solve(ridged, atb[i])
                inside = bool(np.linalg.norm(public) <= radius)
                kinds.add(inside)
                if inside:
                    assert public.tobytes() == stacked[i].tobytes()
                else:
                    assert np.linalg.norm(stacked[i]) <= radius * (1 + 1e-12)
        assert kinds == {True, False}
        # -0.0 entries off the diagonal keep their sign: here it reaches the answer
        ata, atb = np.array([[1.0, -0.0], [-0.0, 1.0]]), np.array([-0.0, 1.0])
        ridged = ata.copy()
        ridged.flat[::3] += BASE_RIDGE
        assert solve_gram(ata[None], atb[None], 10.0)[0].tobytes() == np.linalg.solve(ridged, atb).tobytes()

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_singular_system_raises(self):
        singular = -BASE_RIDGE * np.eye(2)  # with the base ridge added, exactly singular
        with pytest.raises(np.linalg.LinAlgError):
            solve_gram(singular, np.ones(2), 1.0)
        stack = np.stack([np.eye(2), singular, np.eye(2)])
        with pytest.raises(np.linalg.LinAlgError):
            solve_gram(stack, np.ones((3, 2)), 1.0)


class TestAlternatingJointLs:
    def test_recovers_realizable_joint_model(self, rng):
        d, clients, n = 3, 4, 60
        wg_true = rng.normal(0, 0.5, d)
        wl_true = np.array([rng.normal(0, 0.5, 2) for _ in range(clients)])
        xg, xl = np.empty((clients, n, d)), np.empty((clients, n, 2))
        for i in range(clients):
            xg[i], xl[i] = rng.normal(0, 1, (n, d)), rng.normal(0, 1, (n, 2))
        ys = xg @ wg_true + np.vecdot(xl, wl_true[:, None, :])
        wg, wls, obj = alternating_joint_ls(xg, xl, ys, radius=10.0, tol=1e-12)
        assert wls.shape == (clients, 2)
        assert obj <= 1e-8
        for i in range(clients):
            pred = xg[i] @ wg + xl[i] @ wls[i]
            assert pred == pytest.approx(ys[i], abs=1e-4)

    def test_objective_never_worse_than_zero_model(self, rng):
        xg = rng.normal(0, 1, (1, 20, 2))
        xl = rng.normal(0, 1, (1, 20, 2))
        ys = rng.normal(0, 2, (1, 20))
        _, _, obj = alternating_joint_ls(xg, xl, ys, radius=1.0)
        assert obj <= float(np.sum(ys[0] ** 2)) + 1e-12

    def test_rejects_unequal_or_inconsistent_blocks(self, rng):
        xg = [rng.normal(0, 1, (5, 2)), rng.normal(0, 1, (6, 2))]
        xl = [rng.normal(0, 1, (5, 1)), rng.normal(0, 1, (6, 1))]
        ys = [rng.normal(0, 1, 5), rng.normal(0, 1, 6)]
        with pytest.raises(ConfigError):
            alternating_joint_ls(xg, xl, ys, radius=1.0)
        with pytest.raises(ConfigError):
            alternating_joint_ls(np.zeros((2, 5, 2)), np.zeros((2, 4, 1)), np.zeros((2, 5)), 1.0)
        with pytest.raises(ConfigError):
            alternating_joint_ls(np.zeros((5, 2)), np.zeros((5, 1)), np.zeros(5), 1.0)


def streams_run(dataset, rounds: int, batch_size: int = 1):
    """The stream blocks of a dataset as a run's columns (the comparator
    reads nothing else)."""
    xg, xl, y = build_streams(dataset, rounds, 0, batch_size)
    return RunResult(y, y, xg, xl, np.zeros(xg.shape[-1]), [np.zeros(xl.shape[-1])] * y.shape[1],
                     [len(y)] * y.shape[1])


class TestComparatorMatchesOracle:
    """The stacked comparator has the bits of the per-client oracle it replaced."""

    @staticmethod
    def assert_oracle_bits(run, radius):
        blocks = client_blocks(run)
        want_g, want_l, want_obj = alternating_joint_ls_oracle(*blocks, radius)
        for data in (blocks, [np.stack(b) for b in blocks]):
            wg, wls, obj = alternating_joint_ls(*data, radius)
            assert wg.tobytes() == want_g.tobytes()
            assert wls.tobytes() == np.array(want_l).reshape(wls.shape).tobytes()
            assert obj.hex() == want_obj.hex()
        # compute_regret hands its columns to the same comparator
        assert (compute_regret(run, radius=radius)
                == compute_regret(run, comparator=(want_g, want_l)))
        return want_g, np.array(want_l).reshape(len(want_l), -1)

    def test_fleet_shape(self):
        ds = gen_example2(100, 4, np.full(4, 0.5), 0.0, 500, seed=3, test_rounds=0)
        self.assert_oracle_bits(streams_run(ds, 500), DEFAULT_RADIUS)

    def test_single_client_long_stream(self):
        self.assert_oracle_bits(streams_run(gen_appendixc(20_000, 1), 20_000), DEFAULT_RADIUS)

    def test_batched_records_and_routed_views(self, rng):
        corpus = parse_libsvm(toy_corpus(rng, n=400, k=8))
        ds = partition_federated(corpus, clients=4, n0=10, seed=2)
        for view in (ds, independent_view(ds), central_view(ds)):
            wg, wls = self.assert_oracle_bits(streams_run(view, 100, batch_size=10), 1.0)
            dg, dl = (a.shape[1] for a in view.stream_block(0, 1, 0)[:2])
            assert (wg.shape, wls.shape) == ((dg,), (4, dl))

    def test_binding_radius_bisects_on_both_sides(self):
        ds = gen_example2(6, 3, np.full(3, 1.0), 0.1, 80, seed=5, u_global=np.ones(3), test_rounds=0)
        radius = 0.2
        wg, wls = self.assert_oracle_bits(streams_run(ds, 80), radius)
        assert np.linalg.norm(wg) == pytest.approx(radius, rel=1e-6)
        norms = np.linalg.norm(wls, axis=1)
        assert np.isclose(norms, radius, rtol=1e-6).sum() >= 3 and norms.max() <= radius * (1 + 1e-9)
