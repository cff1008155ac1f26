import numpy as np
import pytest

from fedres.bandit import (
    BanditEnv,
    cb_regret,
    choose_action,
    make_realizable_env,
    run_epsilon_greedy,
    run_uniform_policy,
    suggested_exploration_period,
)
from fedres.core import HyperParams
from fedres.datagen import gen_example2
from fedres.engine import run_fedres_sgd
from fedres.errors import ConfigError
from fedres.rng import substream


def fixed_env(k=2, gap=0.4, base=0.3):
    """Constant contexts: action values are base+gap, base, base, ..."""
    wg = np.array([1.0])
    wl = (np.array([1.0]),)

    class FixedEnv(BanditEnv):
        def context_blocks(self, rng, rounds):
            value = np.full((rounds, self.n_clients, self.k, 1), base)
            value[:, :, 0] += gap
            return value / 2, value / 2

    return FixedEnv(k=k, wg_star=wg, wl_stars=wl, noise_sigma=0.0)


class TestChooseAction:
    def test_exploration_round_follows_seed(self):
        env = make_realizable_env(3, 2, 1, 1, seed=7)
        res = run_epsilon_greedy(env, 0, HyperParams(), 10, 10, seed=7)
        expected = substream(7, "bandit-explore").integers(3, size=2)
        assert res.action[9].tolist() == expected.tolist()

    def test_greedy_tie_break_lowest_index(self):
        xg = np.array([[0.2], [0.9], [0.9]])
        xl = np.zeros((3, 1))
        action, _ = choose_action(np.array([1.0]), np.array([1.0]), xg, xl)
        assert action == 1

    def test_zero_models_pick_first_action(self, rng):
        xg, xl = rng.normal(0, 1, (4, 2)), rng.normal(0, 1, (4, 2))
        action, _ = choose_action(np.zeros(2), np.zeros(2), xg, xl)
        assert action == 0

    def test_empty_contexts_rejected(self):
        with pytest.raises(ConfigError):
            choose_action(np.zeros(1), np.zeros(1), np.zeros((0, 1)), np.zeros((0, 1)))


class TestUpdateSchedule:
    def test_exploration_round_count_is_floor(self):
        env = make_realizable_env(3, 2, 2, 2, seed=0)
        for rounds, period in [(25, 10), (30, 10), (9, 10), (7, 1)]:
            res = run_epsilon_greedy(env, 0, HyperParams(), rounds, period, seed=0)
            assert res.exploration_rounds == rounds // period

    def test_period_one_updates_every_round(self):
        env = make_realizable_env(3, 2, 2, 2, seed=1)
        res = run_epsilon_greedy(env, 0, HyperParams(), 12, 1, seed=1)
        assert res.exploration_rounds == 12

    def test_greedy_rounds_leave_models_untouched(self):
        env = make_realizable_env(3, 1, 2, 2, seed=2)
        res_a = run_epsilon_greedy(env, 0, HyperParams(), 9, 10, seed=2)  # never explores
        assert res_a.exploration_rounds == 0
        assert np.all(res_a.final_global == 0) and np.all(res_a.final_locals[0] == 0)


class TestRegret:
    def test_always_best_policy_has_zero_regret(self):
        env = fixed_env()
        res = run_uniform_policy(env, 50, seed=0)
        res.action[:] = 0
        assert cb_regret(res.traces, env) == 0.0

    def test_uniform_on_two_actions_pays_half_the_gap(self):
        env = fixed_env(k=2, gap=0.4)
        res = run_uniform_policy(env, 4000, seed=3)
        reg = cb_regret(res.traces, env)
        assert reg == pytest.approx(0.2, abs=0.02)

    def test_per_round_regret_bounded_by_value_range(self):
        env = make_realizable_env(4, 2, 2, 2, seed=4)
        res = run_epsilon_greedy(env, 0, HyperParams(), 60, 5, seed=4)
        means = env.mean_rewards(res.context_global, res.context_local)
        chosen = np.take_along_axis(means, res.action[..., None], -1)[..., 0]
        top, bottom = means.max(axis=-1), means.min(axis=-1)
        assert np.all(top - chosen <= top - bottom + 1e-12)

    def test_never_exploring_zero_model_is_constant_first_action(self):
        env = make_realizable_env(3, 1, 2, 2, seed=5)
        rounds = 40
        res = run_epsilon_greedy(env, 0, HyperParams(), rounds, rounds + 1, seed=5)
        assert np.all(res.action == 0)
        # oracle: replay the same context stream one round at a time and price action 0
        rng_ctx = substream(5, "bandit-contexts")
        total = 0.0
        for _ in range(rounds):
            means = env.mean_rewards(*env.context_blocks(rng_ctx, 1))[0, 0].tolist()
            total += max(means) - means[0]
        assert cb_regret(res.traces, env) == pytest.approx(total / rounds, rel=1e-12)

    def test_trained_policy_beats_uniform_on_paired_seed(self):
        env = make_realizable_env(4, 3, 2, 2, seed=6, noise_sigma=0.02)
        hp = HyperParams(eta_global=0.3, eta_local=0.3)
        greedy = run_epsilon_greedy(env, 0, hp, 1500, 10, seed=6)
        uniform = run_uniform_policy(env, 1500, seed=6)
        assert cb_regret(greedy.traces, env) < cb_regret(uniform.traces, env)

    def test_missing_bandit_fields_rejected(self):
        env = fixed_env()
        ds = gen_example2(2, 1, np.ones(1), 0.0, 4, seed=0)
        plain = run_fedres_sgd(ds, 0, HyperParams(), 4, 0)
        with pytest.raises(ConfigError):
            cb_regret(plain.traces, env)
        three = run_uniform_policy(make_realizable_env(2, 3, 1, 1, seed=0), 5, seed=0)
        with pytest.raises(ConfigError):  # a one-client env would broadcast over three clients
            cb_regret(three.traces, env)
        with pytest.raises(ConfigError):
            cb_regret([], env)


class TestExplorationPeriodHeuristic:
    def test_three_way_min(self):
        args = dict(
            global_comparator_sq_norm=1.0,
            local_comparator_sq_norm_sum=2.0,
            clients=5,
            rounds=10000,
            sigma2=0.25,
            gamma=1.0,
            grad_bound=2.0,
            radius=1.0,
            k=4,
        )
        got = suggested_exploration_period(**args)
        energy = 3.0
        b1 = (5 * 10000 / (4**4 * energy * 0.25)) ** 0.2
        b2 = 10000**0.25 / (4**6 * 1.0 * 1.0 * 4.0) ** 0.125
        b3 = (10000 / (4**2 * 1.0 * 2.0)) ** (1 / 3)
        assert got == min(b1, b2, b3)

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigError):
            suggested_exploration_period(1, 1, 0, 1, 1, 1, 1, 1, 2)


class TestEnv:
    def test_realizability_of_true_means(self, rng):
        env = make_realizable_env(4, 2, 3, 3, seed=7, noise_sigma=0.0)
        xg, xl = env.context_blocks(substream(7, "bandit-contexts"), 3)
        rewards = env.noisy_rewards(np.random.default_rng(0), env.mean_rewards(xg, xl))
        for t in range(3):
            for i in range(2):
                for a in range(4):
                    lin = float(env.wg_star @ xg[t, i, a] + env.wl_stars[i] @ xl[t, i, a])
                    assert 0.0 <= lin <= 1.0
                    assert rewards[t, i, a] == pytest.approx(lin)

    def test_rewards_clipped_to_unit_interval(self):
        env = make_realizable_env(4, 1, 3, 3, seed=8, noise_sigma=5.0)
        xg, xl = env.context_blocks(substream(8, "bandit-contexts"), 1)
        rewards = env.noisy_rewards(np.random.default_rng(1), env.mean_rewards(xg, xl))
        assert np.all(rewards >= 0.0) and np.all(rewards <= 1.0)

    def test_too_few_actions_rejected(self):
        with pytest.raises(ConfigError):
            BanditEnv(k=1, wg_star=np.ones(1), wl_stars=(np.ones(1),))
