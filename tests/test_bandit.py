import warnings

import numpy as np
import pytest

from fedres import bandit
from fedres.bandit import (
    BanditEnv,
    cb_regret,
    choose_action,
    draw_episode,
    make_realizable_env,
    run_epsilon_greedy,
    run_uniform_policy,
    suggested_exploration_period,
)
from fedres.core import HyperParams
from fedres.datagen import gen_example2
from fedres.engine import run_fedres_sgd
from fedres.errors import ConfigError, InvariantError
from fedres.harness import ExperimentConfig, bandit_rows
from fedres.rng import substream

import bandit_oracle


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
        res = run_epsilon_greedy(draw_episode(env, 10, 7), 0, HyperParams(), 10)
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
            res = run_epsilon_greedy(draw_episode(env, rounds, 0), 0, HyperParams(), period)
            assert res.exploration_rounds == rounds // period

    def test_period_one_updates_every_round(self):
        env = make_realizable_env(3, 2, 2, 2, seed=1)
        res = run_epsilon_greedy(draw_episode(env, 12, 1), 0, HyperParams(), 1)
        assert res.exploration_rounds == 12

    def test_greedy_rounds_leave_models_untouched(self):
        env = make_realizable_env(3, 1, 2, 2, seed=2)
        res_a = run_epsilon_greedy(draw_episode(env, 9, 2), 0, HyperParams(), 10)  # never explores
        assert res_a.exploration_rounds == 0
        assert np.all(res_a.final_global == 0) and np.all(res_a.final_locals[0] == 0)

    def test_overflowing_steps_are_invariant_errors_under_warnings_as_errors(self):
        """Steps large enough to overflow the models end the policy in
        InvariantError, as they end run_fedres_sgd; no RuntimeWarning escapes
        the learner's steps first."""
        env = make_realizable_env(3, 2, 3, 3, seed=0)
        hyper = HyperParams(eta_global=1e300, eta_local=1e300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvariantError):
                run_epsilon_greedy(draw_episode(env, 100, 0), 0, hyper, 10)


class TestRegret:
    def test_always_best_policy_has_zero_regret(self):
        env = fixed_env()
        res = run_uniform_policy(draw_episode(env, 50, 0))
        res.action[:] = 0
        assert cb_regret(res, env) == 0.0

    def test_uniform_on_two_actions_pays_half_the_gap(self):
        env = fixed_env(k=2, gap=0.4)
        res = run_uniform_policy(draw_episode(env, 4000, 3))
        reg = cb_regret(res, env)
        assert reg == pytest.approx(0.2, abs=0.02)

    def test_per_round_regret_bounded_by_value_range(self):
        env = make_realizable_env(4, 2, 2, 2, seed=4)
        res = run_epsilon_greedy(draw_episode(env, 60, 4), 0, HyperParams(), 5)
        means = env.mean_rewards(res.episode.context_global, res.episode.context_local)
        chosen = np.take_along_axis(means, res.action[..., None], -1)[..., 0]
        top, bottom = means.max(axis=-1), means.min(axis=-1)
        assert np.all(top - chosen <= top - bottom + 1e-12)

    def test_never_exploring_zero_model_is_constant_first_action(self):
        env = make_realizable_env(3, 1, 2, 2, seed=5)
        rounds = 40
        res = run_epsilon_greedy(draw_episode(env, rounds, 5), 0, HyperParams(), rounds + 1)
        assert np.all(res.action == 0)
        # oracle: replay the same context stream one round at a time and price action 0
        rng_ctx = substream(5, "bandit-contexts")
        total = 0.0
        for _ in range(rounds):
            means = env.mean_rewards(*env.context_blocks(rng_ctx, 1))[0, 0].tolist()
            total += max(means) - means[0]
        assert cb_regret(res, env) == pytest.approx(total / rounds, rel=1e-12)

    def test_trained_policy_beats_uniform_on_paired_seed(self):
        env = make_realizable_env(4, 3, 2, 2, seed=6, noise_sigma=0.02)
        hp = HyperParams(eta_global=0.3, eta_local=0.3)
        episode = draw_episode(env, 1500, 6)
        greedy = run_epsilon_greedy(episode, 0, hp, 10)
        uniform = run_uniform_policy(episode)
        assert cb_regret(greedy, env) < cb_regret(uniform, env)

    def test_missing_bandit_fields_rejected(self):
        env = fixed_env()
        ds = gen_example2(2, 1, np.ones(1), 0.0, 4, seed=0)
        plain = run_fedres_sgd(ds, 0, HyperParams(), 4, 0)
        with pytest.raises(ConfigError):
            cb_regret(plain, env)
        three = run_uniform_policy(draw_episode(make_realizable_env(2, 3, 1, 1, seed=0), 5, 0))
        with pytest.raises(ConfigError):  # a one-client env would broadcast over three clients
            cb_regret(three, env)
        with pytest.raises(ConfigError):
            cb_regret([], env)


# Heterogeneous delays: beta differs across clients, so the fetched global
# model is one row per client. Five clients: an odd count of exploration picks
# per block.
ALPHA, BETA = (0, 2, 4, 3, 1), (0, 1, 5, 0, 2)
# name: (exploration period or None for the uniform policy, rounds, delays,
# reward noise, radius)
ORACLE_CASES = {
    "period-1": (1, 24, (ALPHA, BETA), 0.1, 1.5),
    "partial-last-block": (5, 47, (ALPHA, BETA), 0.05, 1.5),
    "partial-last-block-quiet-uniform-delays": (7, 40, (2, 1), 0.0, 1.5),
    "period-beyond-horizon": (10, 9, (ALPHA, BETA), 0.05, 1.5),
    "whole-blocks-uniform-beta": (4, 60, (ALPHA, 2), 0.0, 1.5),
    "binding-ball": (2, 50, (ALPHA, BETA), 0.05, 0.05),
    "uniform": (None, 47, 0, 0.05, 1.5),
    "uniform-quiet": (None, 30, 0, 0.0, 1.5),
}


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert (got.shape, got.dtype) == (want.shape, want.dtype)
    assert got.tobytes() == want.tobytes()


class TestMatchesPerBlockOracle:
    @pytest.mark.parametrize("case", ORACLE_CASES)
    def test_policy_reproduces_the_per_block_loop(self, case):
        period, rounds, delays, noise, radius = ORACLE_CASES[case]
        env = make_realizable_env(3, len(ALPHA), 3, 2, seed=11, noise_sigma=noise)
        episode = draw_episode(env, rounds, 11)
        if period is None:
            res = run_uniform_policy(episode)
            want = bandit_oracle.run_uniform_policy(env, rounds, 11)
        else:
            hp = HyperParams(radius=radius, eta_global=0.3, eta_local=(0.2, 0.4, 0.3, 0.5, 0.25))
            res = run_epsilon_greedy(episode, delays, hp, period)
            want = bandit_oracle.run_epsilon_greedy(env, delays, hp, rounds, period, 11)
        for name in ("action", "prediction", "label", "x_global", "x_local", "final_global"):
            assert_same_bits(getattr(res, name), want[name])
        assert_same_bits(np.array(res.final_locals), want["final_locals"])
        assert res.exploration_rounds == want["exploration_rounds"]
        assert cb_regret(res, env) == bandit_oracle.regret(want, env)


class TestEpisode:
    def test_policies_share_one_draw(self):
        env = make_realizable_env(3, 2, 2, 2, seed=3, noise_sigma=0.1)
        episode = draw_episode(env, 20, 3)
        greedy = run_epsilon_greedy(episode, 0, HyperParams(), 4)
        uniform = run_uniform_policy(episode)
        for res in (greedy, uniform):
            assert res.episode is episode  # its contexts and means, shared, not copied

    def test_one_rollout_prices_its_contexts_once(self, monkeypatch):
        calls = {"context_blocks": 0, "mean_rewards": 0}

        class CountingEnv(BanditEnv):
            def context_blocks(self, rng, rounds):
                calls["context_blocks"] += 1
                return super().context_blocks(rng, rounds)

            def mean_rewards(self, xg, xl):
                calls["mean_rewards"] += 1
                return super().mean_rewards(xg, xl)

        make = bandit.make_realizable_env
        monkeypatch.setattr(bandit, "make_realizable_env",
                            lambda *args, **kwargs: CountingEnv(**vars(make(*args, **kwargs))))
        rows = bandit_rows(ExperimentConfig(rounds=30, clients=2, rollouts=1, exploration_period=5))
        assert len(rows) == 2
        assert calls == {"context_blocks": 1, "mean_rewards": 1}

    def test_rejects_empty_horizon_and_period(self):
        env = make_realizable_env(3, 2, 2, 2, seed=0)
        with pytest.raises(ConfigError):
            draw_episode(env, 0, 0)
        with pytest.raises(ConfigError):
            run_epsilon_greedy(draw_episode(env, 5, 0), 0, HyperParams(), 0)


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
