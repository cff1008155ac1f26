import numpy as np
import pytest

from fedres.errors import ConfigError
from fedres.solver import (
    BASE_RIDGE,
    ConstrainedLsProblem,
    alternating_joint_ls,
    solve_constrained_ls,
    solve_gram,
)

from conftest import ls_objective, pgd_ls_oracle


def problem(rows, targets, radius):
    return ConstrainedLsProblem(np.array(rows, float), np.array(targets, float), radius)


class TestSolveConstrainedLs:
    def test_interior_optimum(self):
        w = solve_constrained_ls(problem([[1.0]], [1.0], 10.0))
        assert w == pytest.approx([1.0], abs=1e-8)

    def test_one_dim_clamp(self):
        w = solve_constrained_ls(problem([[1.0]], [2.0], 1.0))
        assert w == pytest.approx([1.0], abs=1e-8)

    def test_active_constraint_matches_pgd(self):
        rows = np.array([[1.0, 0.0], [1.0, 1.0]])
        targets = np.array([2.0, 0.0])
        w = solve_constrained_ls(problem(rows, targets, 1.0))
        _, pgd_obj = pgd_ls_oracle(rows, targets, 1.0, iters=200_000)
        assert np.linalg.norm(w) <= 1.0 + 1e-10
        assert ls_objective(rows, targets, w) <= pgd_obj + 1e-8

    def test_empty_problem_returns_zero(self):
        w = solve_constrained_ls(problem(np.zeros((0, 3)), [], 1.0))
        assert np.all(w == np.zeros(3))

    def test_rejects_bad_inputs(self):
        with pytest.raises(ConfigError):
            problem([[1.0]], [1.0, 2.0], 1.0)
        with pytest.raises(ConfigError):
            problem([[1.0]], [1.0], 0.0)
        with pytest.raises(ConfigError):
            solve_constrained_ls(problem([[1.0]], [1.0], 1.0), ridge=0.0)

    def test_random_problems_beat_pgd_oracle(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 21))
            d = int(rng.integers(1, 6))
            rows = rng.normal(0, 1, (n, d))
            targets = rng.normal(0, 2, n)
            radius = float(rng.uniform(0.1, 2.0))
            w = solve_constrained_ls(problem(rows, targets, radius))
            assert np.linalg.norm(w) <= radius + 1e-10
            _, pgd_obj = pgd_ls_oracle(rows, targets, radius, iters=5000)
            assert ls_objective(rows, targets, w) <= pgd_obj + 1e-8


class TestSolveGram:
    def test_matches_explicit_rows(self, rng):
        for _ in range(50):
            rows = rng.normal(0, 1, (8, 3))
            targets = rng.normal(0, 1, 8)
            radius = float(rng.uniform(0.2, 3.0))
            via_rows = solve_constrained_ls(problem(rows, targets, radius))
            via_gram = solve_gram(rows.T @ rows, rows.T @ targets, radius)
            assert via_gram == pytest.approx(via_rows, rel=1e-9, abs=1e-12)

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
        singular = np.zeros((2, 2))  # with no ridge, exactly singular
        with pytest.raises(np.linalg.LinAlgError):
            solve_gram(singular, np.ones(2), 1.0, ridge=0.0)
        stack = np.stack([np.eye(2), singular, np.eye(2)])
        with pytest.raises(np.linalg.LinAlgError):
            solve_gram(stack, np.ones((3, 2)), 1.0, ridge=0.0)


class TestAlternatingJointLs:
    def test_recovers_realizable_joint_model(self, rng):
        d, clients, n = 3, 4, 60
        wg_true = rng.normal(0, 0.5, d)
        wl_true = [rng.normal(0, 0.5, 2) for _ in range(clients)]
        xg, xl, ys = [], [], []
        for i in range(clients):
            a = rng.normal(0, 1, (n, d))
            b = rng.normal(0, 1, (n, 2))
            xg.append(a)
            xl.append(b)
            ys.append(a @ wg_true + b @ wl_true[i])
        wg, wls, obj = alternating_joint_ls(xg, xl, ys, radius=10.0, tol=1e-12)
        assert obj <= 1e-8
        for i in range(clients):
            pred = xg[i] @ wg + xl[i] @ wls[i]
            assert pred == pytest.approx(ys[i], abs=1e-4)

    def test_objective_never_worse_than_zero_model(self, rng):
        xg = [rng.normal(0, 1, (20, 2))]
        xl = [rng.normal(0, 1, (20, 2))]
        ys = [rng.normal(0, 2, 20)]
        _, _, obj = alternating_joint_ls(xg, xl, ys, radius=1.0)
        assert obj <= float(np.sum(ys[0] ** 2)) + 1e-12
