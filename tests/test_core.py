import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedres.core import (
    HyperParams,
    ResidualMessage,
    Sample,
    grad_global,
    grad_global_from_message,
    grad_local,
    loss,
    predict_joint,
    project_ball,
    suggested_step_size,
)
from fedres.errors import ConfigError, InvariantError

from conftest import finite_diff_grads, random_instance


def vec(*xs):
    return np.array(xs, dtype=float)


class TestPredictJoint:
    def test_dot_products(self):
        s = Sample(vec(2, 3), vec(4, 5), 0.0)
        assert predict_joint(vec(1, 0), vec(0, 1), s) == 7.0

    def test_zero_model(self):
        s = Sample(vec(2, 3), vec(4, 5), 0.0)
        assert predict_joint(vec(0, 0), vec(0, 0), s) == 0.0

    def test_complementary_views_identity(self, rng):
        # [0,1]/[0,1] on ([a+eps, b], [1-a, 1-b]) predicts b + 1 - b = 1
        for _ in range(20):
            a, b, eps = rng.normal(size=3)
            s = Sample(vec(a + eps, b), vec(1 - a, 1 - b), 1.0)
            assert predict_joint(vec(0, 1), vec(0, 1), s) == pytest.approx(1.0)

    def test_dimension_mismatch(self):
        s = Sample(vec(1, 2), vec(3), 0.0)
        with pytest.raises(ValueError):
            predict_joint(vec(1), vec(1), s)


class TestLoss:
    def test_realized(self):
        assert loss(vec(1), vec(0), Sample(vec(1), vec(0), 1.0)) == 0.0

    def test_unit_residual(self):
        assert loss(vec(2), vec(0), Sample(vec(1), vec(0), 1.0)) == 1.0

    def test_components(self):
        s = Sample(vec(1), vec(1), 2.0)
        assert loss(vec(0.5), vec(0.25), s) == pytest.approx(1.5625)


class TestGradients:
    def test_hand_value(self):
        s = Sample(vec(1), vec(1), 1.0)
        assert grad_global(vec(0), vec(0), s) == pytest.approx(vec(-2))
        assert grad_local(vec(0), vec(0), s) == pytest.approx(vec(-2))

    def test_zero_at_fit(self):
        s = Sample(vec(1, 0), vec(0, 2), 3.0)
        wg, wl = vec(1, 5), vec(9, 1)  # prediction 1 + 2 = 3 == y
        assert np.all(grad_global(wg, wl, s) == 0)
        assert np.all(grad_local(wg, wl, s) == 0)

    def test_matches_finite_differences(self, rng):
        for _ in range(200):
            wg, wl, s = random_instance(rng)
            fg, fl = finite_diff_grads(wg, wl, s)
            ag, al = grad_global(wg, wl, s), grad_local(wg, wl, s)
            assert np.linalg.norm(ag - fg) <= 1e-6 * max(1.0, np.linalg.norm(ag))
            assert np.linalg.norm(al - fl) <= 1e-6 * max(1.0, np.linalg.norm(al))

    def test_message_reconstruction_is_exact(self, rng):
        for _ in range(50):
            wg, wl, s = random_instance(rng)
            m = ResidualMessage(s.x_global, float(wl @ s.x_local), s.y, 0, 1)
            assert np.all(grad_global_from_message(wg, m) == grad_global(wg, wl, s))


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
        wg, wl, s = random_instance(rng)
        val = loss(wg, wl, s)
        assert val >= 0.0
        if val == 0.0:
            assert predict_joint(wg, wl, s) == s.y
        fitted = Sample(s.x_global, s.x_local, predict_joint(wg, wl, s))
        assert loss(wg, wl, fitted) == 0.0


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

    def test_validation(self):
        with pytest.raises(ConfigError):
            HyperParams(radius=-1.0)
        with pytest.raises(ConfigError):
            HyperParams(eta_global=0.0)
        with pytest.raises(ConfigError):
            HyperParams(eta_local=[0.1, -0.1])
