"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 1 pins the three-way protocol at step size 1.0 for the gradient
learner. Plain per-sample squared-loss gradient steps on the
complementary-views stream are divergent for steps above roughly 0.1
(verified by the stability scan in scripts/threeway_comparison.py), so the
two assertions involving the gradient learner fail at the pinned step and
this test is expected to stay red; the companion test reproduces the full
qualitative phenomenon at a stable step. Everything else must pass.
"""

import os
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from fedres.baselines import central_view
from fedres.bandit import (
    cb_regret,
    draw_episode,
    make_realizable_env,
    run_epsilon_greedy,
    run_uniform_policy,
)
from fedres.core import HyperParams, default_eta, project_ball
from fedres.datagen import gen_appendixc, gen_example2, parse_libsvm, partition_federated
from fedres.engine import run_fedres_sgd
from fedres.erm import run_fedres_erm, run_fictitious_play
from fedres.harness import compute_regret

from conftest import (
    ball_project_oracle,
    finite_diff_grads,
    ls_objective,
    pgd_ls_oracle_stacked,
    random_instance,
    rows_of,
    solve_rows,
)
from test_datagen import toy_corpus
from test_minibatch import applied_grads
from test_sgd import dataset_from_streams, scripted_stream

TARGET = np.array([0.0, 1.0])
C1_ROUNDS = 20_000
C1_SEEDS = 50
WORKERS = max(1, min(2, os.cpu_count() or 1))


def report(num: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}")


def paired_margin_in_se(a: np.ndarray, b: np.ndarray) -> float:
    diff = a - b
    return float(diff.mean() / (diff.std(ddof=1) / np.sqrt(len(diff))))


# ---------------------------------------------------------------------------
# Criterion 1: three-way comparison on the complementary-views stream


def _threeway_run(args):
    seed, algo, eta = args
    ds = gen_appendixc(C1_ROUNDS, seed)
    init = np.array([1.0, 0.0])
    hp = HyperParams(eta_global=eta, eta_local=eta)
    runner = {"sgd": run_fedres_sgd, "erm": run_fedres_erm, "fp": run_fictitious_play}[algo]
    res = runner(ds, 0, hp, C1_ROUNDS, seed, init_global=init, init_locals=[init])
    return algo, eta, seed, res.mean_loss(), float(np.linalg.norm(res.final_global - TARGET))


@pytest.fixture(scope="module")
def threeway_stats():
    strict = [(s, a, 1.0) for a in ("erm", "fp", "sgd") for s in range(C1_SEEDS)]
    start = time.perf_counter()
    with ProcessPoolExecutor(max_workers=WORKERS) as pool:
        strict_out = list(pool.map(_threeway_run, strict, chunksize=8))
        elapsed = time.perf_counter() - start
        stable_out = list(
            pool.map(_threeway_run, [(s, "sgd", 0.05) for s in range(C1_SEEDS)], chunksize=8)
        )
    stats = {}
    for algo, eta, seed, mean_loss, dist in strict_out + stable_out:
        entry = stats.setdefault((algo, eta), {"loss": np.zeros(C1_SEEDS), "dist": np.zeros(C1_SEEDS)})
        entry["loss"][seed] = mean_loss
        entry["dist"][seed] = dist
    stats["elapsed"] = elapsed
    return stats


def _threeway_conditions(stats, sgd_eta):
    erm, fp = stats[("erm", 1.0)], stats[("fp", 1.0)]
    sgd = stats[("sgd", sgd_eta)]
    return {
        "fp loss > erm loss by 2 paired SE": paired_margin_in_se(fp["loss"], erm["loss"]) > 2.0,
        "fp loss > sgd loss by 2 paired SE": paired_margin_in_se(fp["loss"], sgd["loss"]) > 2.0,
        "sgd final dist < 0.1": float(sgd["dist"].mean()) < 0.1,
        "erm final dist < 0.1": float(erm["dist"].mean()) < 0.1,
        "fp final dist > 0.3": float(fp["dist"].mean()) > 0.3,
        "runtime < 120 s": stats["elapsed"] < 120.0,
    }


def test_criterion_01_threeway_protocol_at_pinned_step(threeway_stats):
    conds = _threeway_conditions(threeway_stats, sgd_eta=1.0)
    detail = "; ".join(f"{k}: {'ok' if v else 'VIOLATED'}" for k, v in conds.items())
    report(1, all(conds.values()), f"step 1.0; {detail}")
    assert all(conds.values()), (
        "the pinned unit step diverges for per-sample squared-loss gradients "
        f"on this stream (needs < ~0.1): {detail}"
    )


def test_criterion_01_companion_threeway_at_stable_step(threeway_stats):
    conds = _threeway_conditions(threeway_stats, sgd_eta=0.05)
    detail = "; ".join(f"{k}: {'ok' if v else 'VIOLATED'}" for k, v in conds.items())
    report(1, all(conds.values()), f"companion step 0.05; {detail}")
    assert all(conds.values()), detail


# ---------------------------------------------------------------------------
# Criterion 2: sign-split separation between central and residual learning


def test_criterion_02_sign_split_separation():
    start = time.perf_counter()
    v = np.full(4, 0.5)  # unit norm
    rounds = 2000
    ds = gen_example2(10, 4, v, noise=0.0, rounds=rounds, seed=0)
    eta = default_eta(rounds)
    hp = HyperParams(eta_global=eta, eta_local=eta)
    central = run_fedres_sgd(central_view(ds), 0, hp, rounds, 0).terminal_mean_loss()
    fedres = run_fedres_sgd(ds, 0, hp, rounds, 0).terminal_mean_loss()
    elapsed = time.perf_counter() - start
    ok = 0.8 <= central <= 1.2 and fedres < 0.05 and elapsed < 30.0
    report(2, ok, f"central terminal {central:.3f} in [0.8, 1.2]; residual {fedres:.2e} < 0.05; {elapsed:.1f}s")
    assert 0.8 <= central <= 1.2
    assert fedres < 0.05
    assert elapsed < 30.0


# ---------------------------------------------------------------------------
# Criterion 3: zero-delay bit-equivalence with a joint projected-SGD loop


def test_criterion_03_zero_delay_bit_equivalence():
    rng = np.random.default_rng(303)
    clients, rounds, dg, dl = 3, 100, 3, 2
    streams = [scripted_stream(rng, rounds, dg, dl) for _ in range(clients)]
    rows = [rows_of(st) for st in streams]
    ds = dataset_from_streams(streams, dg, [dl] * clients)
    eta, radius = 0.05, 100.0
    hp = HyperParams(radius=radius, eta_global=eta, eta_local=eta)
    res = run_fedres_sgd(ds, 0, hp, rounds, 0)

    # independent joint loop: local step on the old local, summed global step
    # on the fresh residuals, both projected
    wg = np.zeros(dg)
    wl = [np.zeros(dl) for _ in range(clients)]
    losses = {}
    for t in range(1, rounds + 1):
        gsum = np.zeros(dg)
        for i in range(clients):
            xg, xl, y = rows[i][t - 1]
            grad_l = 2.0 * ((wg @ xg + wl[i] @ xl) - y) * xl
            wl[i] = ball_project_oracle(wl[i] - eta * grad_l, radius)
            lp = float(wl[i] @ xl)
            losses[(t, i)] = (y - (float(wg @ xg) + lp)) ** 2
            gsum += 2.0 * ((wg @ xg + lp) - y) * xg
        wg = ball_project_oracle(wg - eta * gsum, radius)

    exact = all(res.loss[t - 1, i] == loss for (t, i), loss in losses.items())
    exact = exact and np.array_equal(res.final_global, wg)
    exact = exact and all(np.array_equal(a, b) for a, b in zip(res.final_locals, wl))
    report(3, exact, f"{clients} clients x {rounds} rounds, exact equality")
    assert exact


# ---------------------------------------------------------------------------
# Criterion 4: delay robustness on a similar-tasks environment


def test_criterion_04_delay_robustness():
    rounds, eta, seeds = 3000, 0.002, 20
    hp = HyperParams(eta_global=eta, eta_local=eta)
    excess = []
    for seed in range(seeds):
        ds = gen_example2(
            4, 2, np.zeros(2), noise=0.2, rounds=rounds, seed=seed, u_global=np.array([0.8, 0.6])
        )
        base = run_fedres_sgd(ds, 0, hp, rounds, seed).terminal_mean_loss()
        delayed = run_fedres_sgd(ds, (10, 10), hp, rounds, seed).terminal_mean_loss()
        excess.append((delayed - base) / base)
    mean_excess = float(np.mean(excess))
    ok = mean_excess < 0.25
    report(4, ok, f"round trip 20 vs 0: mean relative excess {mean_excess:+.3f} < 0.25 over {seeds} paired seeds")
    assert ok


# ---------------------------------------------------------------------------
# Criterion 5: mini-batch contracts


def test_criterion_05_minibatch_contracts():
    rng = np.random.default_rng(505)
    clients, rounds, dg, dl = 2, 24, 2, 2
    streams = [scripted_stream(rng, rounds, dg, dl) for _ in range(clients)]
    ds = dataset_from_streams(streams, dg, [dl] * clients)
    eta, radius = 0.08, 100.0
    hp = HyperParams(radius=radius, eta_global=eta, eta_local=eta)

    # (a) batch size one is bit-identical to the unbatched engine
    a = run_fedres_sgd(ds, (2, 1), hp, rounds, 0, batch_size=1)
    b = run_fedres_sgd(ds, (2, 1), hp, rounds, 0)
    bit_equal = np.array_equal(a.loss, b.loss) and np.array_equal(a.prediction, b.prediction)
    bit_equal = bit_equal and np.array_equal(a.final_global, b.final_global)

    # (b) exactly rounds / b downlink fetches per client
    fetch_ok = all(
        run_fedres_sgd(ds, (2, 1), hp, rounds, 0, batch_size=bsz).fetch_counts
        == [rounds // bsz] * clients
        for bsz in (1, 2, 4, 8)
    )

    # (c) batch of four bit-matches a manual run on the aggregated sequence
    bsz = 4
    res = run_fedres_sgd(ds, (2, 1), hp, rounds, 0, batch_size=bsz)
    n_batches = rounds // bsz
    batches = [
        [rows[n * bsz : (n + 1) * bsz] for n in range(n_batches)] for rows in map(rows_of, streams)
    ]
    alpha_b, beta_b = 1, 1  # ceil(2/4), ceil(1/4)
    snapshots = {0: np.zeros(dg)}
    wg = np.zeros(dg)
    wl = [np.zeros(dl) for _ in range(clients)]
    hist = {}
    inbox = {}
    losses = {}
    for n in range(1, n_batches + 1):
        snapshots[n] = wg
        for i in range(clients):
            fetched = snapshots[max(n - beta_b, 0)]
            batch = batches[i][n - 1]
            back = n - (alpha_b + beta_b)
            if back >= 1:
                g_then, wl_then, batch_then = hist[(i, back)]
                rows = [
                    2.0 * ((g_then @ xg + wl_then @ xl) - y) * xl for xg, xl, y in batch_then
                ]
                wl[i] = ball_project_oracle(wl[i] - eta * np.mean(np.stack(rows), axis=0), radius)
            hist[(i, n)] = (fetched, wl[i], batch)
            preds = [float(fetched @ xg) + float(wl[i] @ xl) for xg, xl, _ in batch]
            losses[(n, i)] = float(np.mean([(y - p) ** 2 for (_, _, y), p in zip(batch, preds)]))
            lp = np.array([float(wl[i] @ xl) for _, xl, _ in batch])
            xg = np.stack([xg for xg, _, _ in batch])
            ys = np.array([y for _, _, y in batch])
            inbox.setdefault(n + alpha_b, []).append((i, n, xg, lp, ys))
        gsum = np.zeros(dg)
        arrived = False
        for i, sent, xg, lp, ys in inbox.get(n, []):
            snap = snapshots[max(sent - beta_b, 0)]
            rows = [2.0 * ((snap @ xg[k] + lp[k]) - ys[k]) * xg[k] for k in range(bsz)]
            gsum += np.mean(np.stack(rows), axis=0)
            arrived = True
        if arrived:
            wg = ball_project_oracle(wg - eta * gsum, radius)
    manual_equal = all(res.loss[n - 1, i] == loss for (n, i), loss in losses.items())
    manual_equal = manual_equal and np.array_equal(res.final_global, wg)
    manual_equal = manual_equal and all(np.array_equal(x, y) for x, y in zip(res.final_locals, wl))

    ok = bit_equal and fetch_ok and manual_equal
    report(5, ok, f"b=1 bit-equal: {bit_equal}; fetch counts: {fetch_ok}; b=4 transcription bit-equal: {manual_equal}")
    assert bit_equal and fetch_ok and manual_equal


# ---------------------------------------------------------------------------
# Criterion 6: constrained solver optimality on random problems


def test_criterion_06_solver_optimality():
    rng = np.random.default_rng(606)
    problems = []
    for _ in range(500):
        n = int(rng.integers(1, 21))
        d = int(rng.integers(1, 6))
        rows = rng.normal(0, 1, (n, d))
        targets = rng.normal(0, 2, n)
        problems.append((rows, targets, float(rng.uniform(0.1, 2.0))))
    _, pgd_objs = pgd_ls_oracle_stacked(problems, iters=5000)
    worst_gap = -np.inf
    for (rows, targets, radius), pgd_obj in zip(problems, pgd_objs):
        w = solve_rows(rows, targets, radius)
        assert np.linalg.norm(w) <= radius + 1e-10
        worst_gap = max(worst_gap, ls_objective(rows, targets, w) - float(pgd_obj))
    ok = worst_gap <= 1e-8
    report(6, ok, f"500 problems; worst objective excess over PGD oracle {worst_gap:.2e} <= 1e-8")
    assert ok


# ---------------------------------------------------------------------------
# Criterion 7: the gradients the engine applies vs central finite differences


def test_criterion_07_gradient_correctness():
    # one unit-step run per instance: the local gradient at (wg, wl), the
    # global one at (wg, stepped local)
    rng = np.random.default_rng(707)
    worst = 0.0
    for _ in range(1000):
        wg, wl, s = random_instance(rng)
        ag, al, stepped = applied_grads(wg, wl, s)
        fg, _ = finite_diff_grads(wg, stepped, *s)
        _, fl = finite_diff_grads(wg, wl, *s)
        worst = max(
            worst,
            np.linalg.norm(ag - fg) / max(1.0, np.linalg.norm(ag)),
            np.linalg.norm(al - fl) / max(1.0, np.linalg.norm(al)),
        )
    ok = worst <= 1e-6
    report(7, ok, f"1000 instances; worst relative error {worst:.2e} <= 1e-6")
    assert ok


# ---------------------------------------------------------------------------
# Criterion 8: projected-step inequality


def test_criterion_08_projected_step_inequality():
    rng = np.random.default_rng(808)
    worst_slack = np.inf
    for _ in range(1000):
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
        worst_slack = min(worst_slack, rhs - lhs)
    ok = worst_slack >= -1e-9
    report(8, ok, f"1000 instances; worst slack {worst_slack:.2e} >= -1e-9")
    assert ok


# ---------------------------------------------------------------------------
# Criterion 9: partitioner properties


def test_criterion_09_partition_properties():
    rng = np.random.default_rng(909)
    corpus = parse_libsvm(toy_corpus(rng, n=200, k=8, d=6))
    n0 = 30
    ok = True
    for seed in range(50):
        ds = partition_federated(corpus, clients=4, n0=n0, seed=seed)
        lines = []
        for c in ds.clients:
            lines.extend(c.train_lines + c.test_lines)
            labels = c.train[2].tolist()
            ok &= labels.count(1.0) == labels.count(-1.0) == len(labels) // 2
            ok &= len(labels) <= 2 * n0
            merged, neg = c.task
            ok &= len(merged) == 2  # floor(0.3 * 8)
            ok &= neg not in merged
        ok &= len(lines) == len(set(lines))
    report(9, bool(ok), "50 seeds; disjointness, exact balance, merged-class size 2, train <= 60")
    assert ok


# ---------------------------------------------------------------------------
# Criterion 10: bandit sanity


def test_criterion_10_bandit_paired_regret():
    rounds, period = 5000, 10
    env = make_realizable_env(4, 5, 3, 3, seed=0, noise_sigma=0.02)
    hp = HyperParams(eta_global=0.3, eta_local=0.3)
    episode = draw_episode(env, rounds, 0)
    greedy = run_epsilon_greedy(episode, 0, hp, period)
    uniform = run_uniform_policy(episode)
    rg = cb_regret(greedy, env)
    ru = cb_regret(uniform, env)
    count_ok = greedy.exploration_rounds == rounds // period
    ok = rg < 0.5 * ru and count_ok
    report(10, ok, f"regret {rg:.4f} < 0.5 x uniform {ru:.4f}; explorations {greedy.exploration_rounds} == {rounds // period}")
    assert rg < 0.5 * ru
    assert count_ok


# ---------------------------------------------------------------------------
# Criterion 11: regret sublinearity


def test_criterion_11_regret_sublinearity():
    v = np.array([0.6, 0.8])
    ratios = []
    for seed in range(10):
        regs = {}
        for rounds in (512, 4096):
            ds = gen_example2(4, 2, v, noise=0.0, rounds=rounds, seed=seed)
            eta = default_eta(rounds)
            hp = HyperParams(eta_global=eta, eta_local=eta)
            res = run_fedres_sgd(ds, 0, hp, rounds, seed)
            regs[rounds] = compute_regret(res, radius=100.0)
        ratios.append(regs[4096] / regs[512])
    mean_ratio = float(np.mean(ratios))
    ok = mean_ratio < 0.5
    report(11, ok, f"mean regret ratio T=4096 / T=512 is {mean_ratio:.3f} < 0.5 over 10 seeds")
    assert ok
