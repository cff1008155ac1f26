import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedres.core import HyperParams, project_ball, suggested_step_size
from fedres.datagen import gen_appendixc
from fedres.engine import run_fedres_sgd
from fedres.errors import ConfigError, InvariantError

from conftest import finite_diff_grads, random_instance, stack_rows
from test_minibatch import applied_grads
from test_sgd import dataset_from_streams


def vec(*xs):
    return np.array(xs, dtype=float)


def priced(wg, wl, *rows):
    """A one-client run that never steps (the round trip outlasts the
    horizon): its prediction and loss columns price each (xg, xl, y) row
    under the pair (wg, wl)."""
    n = len(rows)
    ds = dataset_from_streams([stack_rows(rows)])
    return run_fedres_sgd(ds, (n, 0), HyperParams(), n, 0, init_global=wg, init_locals=[wl])


class TestPredictJoint:
    def test_dot_products(self):
        s = vec(2, 3), vec(4, 5), 0.0
        assert priced(vec(1, 0), vec(0, 1), s).prediction[0, 0, 0] == 7.0

    def test_zero_model(self):
        s = vec(2, 3), vec(4, 5), 0.0
        assert priced(vec(0, 0), vec(0, 0), s).prediction[0, 0, 0] == 0.0

    def test_complementary_views_identity(self, rng):
        # [0,1]/[0,1] on ([a+eps, b], [1-a, 1-b]) predicts b + 1 - b = 1
        rows = []
        for _ in range(20):
            a, b, eps = rng.normal(size=3)
            rows.append((vec(a + eps, b), vec(1 - a, 1 - b), 1.0))
        res = priced(vec(0, 1), vec(0, 1), *rows)
        assert res.prediction.ravel() == pytest.approx(np.ones(20))


class TestLoss:
    def test_realized(self):
        assert priced(vec(1), vec(0), (vec(1), vec(0), 1.0)).loss[0, 0] == 0.0

    def test_unit_residual(self):
        assert priced(vec(2), vec(0), (vec(1), vec(0), 1.0)).loss[0, 0] == 1.0

    def test_components(self):
        s = vec(1), vec(1), 2.0
        assert priced(vec(0.5), vec(0.25), s).loss[0, 0] == pytest.approx(1.5625)


class TestGradients:
    """The gradients a unit-step run applies (see test_minibatch.applied_grads)."""

    def test_hand_value(self):
        s = vec(1), vec(1), 1.0
        ag, al, stepped = applied_grads(vec(0), vec(0), s)
        assert al == pytest.approx(vec(-2))
        assert stepped == pytest.approx(vec(2))
        assert ag == pytest.approx(vec(2))  # at the stepped local: 2 (0 + 2 - 1) 1

    def test_zero_at_fit(self):
        s = vec(1, 0), vec(0, 2), 3.0
        wg, wl = vec(1, 5), vec(9, 1)  # prediction 1 + 2 = 3 == y
        ag, al, _ = applied_grads(wg, wl, s)
        assert np.all(ag == 0)
        assert np.all(al == 0)

    def test_matches_finite_differences(self, rng):
        for _ in range(200):
            wg, wl, s = random_instance(rng)
            ag, al, stepped = applied_grads(wg, wl, s)
            fg, _ = finite_diff_grads(wg, stepped, *s)
            _, fl = finite_diff_grads(wg, wl, *s)
            assert np.linalg.norm(ag - fg) <= 1e-6 * max(1.0, np.linalg.norm(ag))
            assert np.linalg.norm(al - fl) <= 1e-6 * max(1.0, np.linalg.norm(al))


class TestProjectBall:
    def test_inside_unchanged(self):
        assert np.all(project_ball(vec(0.3, 0.4), 1.0) == vec(0.3, 0.4))

    def test_scales_to_boundary(self):
        assert project_ball(vec(3, 4), 1.0) == pytest.approx(vec(0.6, 0.8))

    def test_zero_vector(self):
        assert np.all(project_ball(vec(0, 0), 2.0) == vec(0, 0))

    def test_rejects_bad_radius(self):
        with pytest.raises(ConfigError):
            project_ball(vec(1), 0.0)

    @given(
        st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=6),
        st.floats(1e-3, 1e3),
    )
    @settings(max_examples=200, deadline=None)
    def test_idempotent_and_bounded(self, values, radius):
        v = np.array(values)
        once = project_ball(v, radius)
        assert np.all(project_ball(once.copy(), radius) == once)
        assert np.linalg.norm(once) <= radius * (1 + 1e-12)


    def test_nudges_match_a_written_out_oracle(self, rng):
        """A 1-D vector outside the ball: f = radius / sqrt(v @ v), then
        np.nextafter(f, 0) steps until sqrt(w @ w) <= radius, bit for bit.
        549 of the 4,000 draws take at least one step; at least 10% must."""
        nudged = 0
        for _ in range(4000):
            v = rng.normal(size=rng.integers(1, 5)) * 10.0 ** rng.uniform(-3, 3)
            radius = float(np.sqrt(v @ v)) * rng.uniform(0.05, 0.95)
            f = radius / np.sqrt(v @ v)
            w = v * f
            steps = 0
            while np.sqrt(w @ w) > radius:
                f = np.nextafter(f, 0.0)
                w = v * f
                steps += 1
            assert project_ball(v, radius).tobytes() == w.tobytes()
            nudged += steps > 0
        assert nudged >= 400

    def test_infinite_entry_raises(self):
        with pytest.raises(InvariantError):
            project_ball(vec(np.inf, 1), 1.0)

    def test_nan_entry_raises(self):
        with pytest.raises(InvariantError):
            project_ball(vec(np.nan, 0), 1.0)
        with pytest.raises(InvariantError):
            project_ball(np.array([[0.1, 0.1], [np.nan, 0.0]]), 1.0)

    def test_overflowing_norm_raises(self):
        with np.errstate(over="ignore"), pytest.raises(InvariantError):
            project_ball(vec(1e200, 1e200), 1e300)

    @given(
        st.lists(st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=3), min_size=1, max_size=5),
        st.floats(1e-3, 1e3),
    )
    @settings(max_examples=100, deadline=None)
    def test_rows_project_like_vectors(self, rows, radius):
        v = np.array(rows)
        out = project_ball(v, radius)
        assert out.shape == v.shape
        for row, got in zip(v, out):
            assert np.array_equal(project_ball(row, radius), got)


class TestLossSignProperties:
    @given(st.integers(0, 10_000))
    @settings(max_examples=150, deadline=None)
    def test_nonnegative_and_zero_iff_fit(self, seed):
        rng = np.random.default_rng(seed)
        wg, wl, (xg, xl, y) = random_instance(rng)
        res = priced(wg, wl, (xg, xl, y))
        val, pred = res.loss[0, 0], res.prediction[0, 0, 0]
        assert val >= 0.0
        if val == 0.0:
            assert pred == y
        assert priced(wg, wl, (xg, xl, pred)).loss[0, 0] == 0.0


class TestProjectedStepInequality:
    def test_holds_on_random_instances(self, rng):
        # w' = proj(w - eta g): (w'-w*).g <= (|w-w*|^2 - |w'-w*|^2 - |w'-w|^2)/(2 eta)
        for _ in range(300):
            d = int(rng.integers(1, 6))
            radius = float(rng.uniform(0.2, 3.0))
            w = project_ball(rng.normal(0, 1, d), radius)
            w_star = project_ball(rng.normal(0, 1, d), radius)
            g = rng.normal(0, 2, d)
            eta = float(rng.uniform(1e-3, 2.0))
            w_next = project_ball(w - eta * g, radius)
            lhs = float((w_next - w_star) @ g)
            rhs = (
                np.linalg.norm(w - w_star) ** 2
                - np.linalg.norm(w_next - w_star) ** 2
                - np.linalg.norm(w_next - w) ** 2
            ) / (2 * eta)
            assert lhs <= rhs + 1e-9


class TestSuggestedStepSize:
    @staticmethod
    def branches(wg2, wl2, clients, rounds, sigma2, gamma, bound, tau):
        energy = wg2 + wl2
        return (
            np.sqrt(energy / (rounds * clients * sigma2)),
            (energy / (gamma * clients**3 * bound**2 * tau**2 * rounds)) ** (1 / 3),
        )

    def test_all_ones(self):
        got = suggested_step_size(1, 1, 1, 1, 1, 1, 1, 1)
        assert got == pytest.approx(min(self.branches(1, 1, 1, 1, 1, 1, 1, 1)))
        assert got == pytest.approx(2.0 ** (1 / 3))

    def test_vanishes_with_variance(self):
        small = suggested_step_size(1, 1, 2, 100, 1e12, 1, 1, 5)
        smaller = suggested_step_size(1, 1, 2, 100, 1e14, 1, 1, 5)
        assert smaller < small < 1e-3

    def test_frozen_regression_value(self):
        got = suggested_step_size(1, 1, 10, 1000, 0.5, 1, 1, 5)
        b1, b2 = self.branches(1, 1, 10, 1000, 0.5, 1, 1, 5)
        assert got == min(b1, b2)
        assert got == pytest.approx(0.0043088693800637674, rel=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigError):
            suggested_step_size(1, 1, 0, 1, 1, 1, 1, 1)


class TestHyperParams:
    def test_per_client_eta(self):
        hp = HyperParams(radius=1.0, eta_global=0.1, eta_local=[0.1, 0.2])
        assert hp.eta_for(1, 2) == 0.2
        with pytest.raises(ConfigError):
            hp.eta_for(0, 3)

    def test_zero_dimensional_eta_is_the_shared_step(self):
        ds = gen_appendixc(20, 1)
        want = run_fedres_sgd(ds, (1, 1), HyperParams(eta_local=0.1), 20, 1)
        for eta in (np.array(0.1), np.float64(0.1)):
            hp = HyperParams(eta_local=eta)
            assert hp.eta_for(0, 3) == 0.1
            got = run_fedres_sgd(ds, (1, 1), hp, 20, 1)
            assert np.array_equal(got.prediction, want.prediction)
            assert np.array_equal(got.final_locals, want.final_locals)

    def test_validation(self):
        with pytest.raises(ConfigError):
            HyperParams(radius=-1.0)
        with pytest.raises(ConfigError):
            HyperParams(eta_global=0.0)
        with pytest.raises(ConfigError):
            HyperParams(eta_local=[0.1, -0.1])
