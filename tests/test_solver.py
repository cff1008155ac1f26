import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedres import native, solver
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
    def test_singular_system_takes_the_first_doubled_ridge_that_is_not_singular(self):
        """A system that the base ridge leaves exactly singular is solved at
        BASE_RIDGE * 2**k for the least k at which np.linalg.solve accepts
        it, alone and in a stack: -BASE_RIDGE I cancels the base ridge, and
        two equal columns of 2**26 or 2**498 (a Gram diagonal near 1e300)
        lose it in rounding. On a binding radius the bisection runs on the
        same rule and ends on the ball."""
        x26, x498 = np.full(2, 2.0**26), np.full(2, 2.0**498)
        for ata, atb, radius in [(-BASE_RIDGE * np.eye(2), np.ones(2), 1e20),
                                 (np.outer(x26, x26), 3.0 * x26, 1.0),
                                 (np.outer(x498, x498), 3.0 * x498, 1.0)]:
            ridge = BASE_RIDGE
            while True:
                try:
                    want = np.linalg.solve(ridged(ata, ridge), atb)
                    break
                except np.linalg.LinAlgError:
                    ridge *= 2.0
            assert ridge > BASE_RIDGE and np.linalg.norm(want) <= radius
            stack = np.stack([np.eye(2), ata, np.eye(2)]), np.stack([atb] * 3)
            assert solve_gram(ata, atb, radius).tobytes() == want.tobytes()
            assert solve_gram(*stack, radius)[1].tobytes() == want.tobytes()
            small = 1e-3 * float(np.linalg.norm(want))
            w = solve_gram(ata, atb, small)
            assert w.tobytes() == solve_gram(*stack, small)[1].tobytes()
            assert np.linalg.norm(w) == pytest.approx(small, rel=1e-9)

    def test_a_system_singular_at_every_ridge_ends_as_nan(self, monkeypatch):
        """The doubling ends on any input: a system that dgesv refuses at
        every ridge stops at the first infinite one, as NaN."""
        ridges = []

        def singular(m, b, signature):
            ridges.append(float(m[0, 0]))
            raise FloatingPointError("invalid value encountered in solve1")

        monkeypatch.setattr(solver, "_stacked_solve", singular)
        assert np.isnan(solver._ridge_solve(np.zeros((2, 2)), np.ones(2), BASE_RIDGE)).all()
        assert ridges[0] == BASE_RIDGE and ridges[1:] == [2.0 * r for r in ridges[:-1]]
        assert ridges[-2] < math.inf == ridges[-1] and len(ridges) < 1200

    def test_a_bracket_past_the_largest_double_starts_from_the_scaled_norm(self):
        """||atb|| / radius is finite, but the squares of atb's entries of
        about 1e181 are not: the bisection starts from the norm of atb scaled
        by its largest entry, not from an infinite ridge, whose solve is 0.
        It ends on the ball, where the same problem scaled by 2**-600 ends,
        alone and in a stack, and warns of no overflow."""
        x = np.full(2, 2.0**200)
        ata, atb = np.outer(x, x), 3.0 * 2.0**400 * x
        # the caller's state of RoundSystem.run: the singular base-ridge solve's NaN is quiet
        with warnings.catch_warnings(), np.errstate(invalid="ignore"):
            warnings.simplefilter("error")
            w = solve_gram(ata, atb, 1.0)
            stacked = solve_gram(np.stack([np.eye(2), ata]), np.stack([x * 0.0, atb]), 1.0)[1]
        twin = solve_gram(ata * 2.0**-600, atb * 2.0**-600, 1.0)
        assert stacked.tobytes() == w.tobytes()
        assert np.linalg.norm(w) == pytest.approx(1.0, rel=1e-9)
        np.testing.assert_allclose(w, twin, rtol=1e-9)


def ridged(ata: np.ndarray, ridge: float) -> np.ndarray:
    """ata with ridge added to its diagonal, as the solver adds it."""
    out = ata.copy()
    out.flat[:: len(out) + 1] += ridge
    return out


@st.composite
def collinear_grams(draw):
    """Gram stacks (P, d, d) and right-hand sides (P, d) of n records whose
    d >= 2 columns copy, negate or scale k < d drawn ones, at a scale of 1
    to 1e150 (1e3 as a corpus of values near +-1000, and 1e7 with one
    record, among them), labels on a scale that makes the radius bind or
    not, and a radius from 1e-3 to 1e3."""
    p, d = draw(st.integers(1, 4)), draw(st.integers(2, 5))
    n = draw(st.sampled_from([1, 1, 2, 5, 30]))
    scale = 10.0 ** draw(st.sampled_from([0, 3, 7, 7]) | st.integers(0, 150))
    radius = 10.0 ** draw(st.floats(-3.0, 3.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = int(rng.integers(1, d))
    columns = np.concatenate([np.arange(k), rng.integers(0, k, d - k)])
    factors = rng.choice([1.0, 1.0, -1.0, 0.5, 2.0, 3.0], d)
    x = rng.normal(0, scale, (p, n, k))[..., columns] * factors
    y = rng.normal(0, 1, (p, n)) * draw(st.sampled_from([1.0, scale, 1e3 * scale]))
    xt = x.swapaxes(1, 2)
    return xt @ x, (xt @ y[..., None])[..., 0], radius


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning",
                            "ignore:overflow encountered:RuntimeWarning")
def test_collinear_columns_get_finite_answers_in_the_ball():
    """Duplicated and scaled columns, whose Gram blocks the base ridge
    often leaves singular: every row of a stacked call has the bits of its
    own call, and is finite and inside the ball. 120 derandomized draws
    (collinear_grams); so that the check is not vacuous, at least one in
    four must hold a block that is singular at the base ridge, and ten of
    those a block whose unconstrained answer leaves the ball."""
    kinds = {"singular": 0, "binding": 0, "draws": 0}

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(collinear_grams())
    def check(grams):
        ata, atb, radius = grams
        stacked = solve_gram(ata, atb, radius)
        for a, b, w in zip(ata, atb, stacked):
            assert solve_gram(a, b, radius).tobytes() == w.tobytes()
        assert np.isfinite(stacked).all()
        assert np.sqrt(np.vecdot(stacked, stacked)).max() <= radius * (1 + 1e-12)
        kinds["draws"] += 1
        for a, b in zip(ata, atb):
            try:
                np.linalg.solve(ridged(a, BASE_RIDGE), b)
            except np.linalg.LinAlgError:
                kinds["singular"] += 1
                kinds["binding"] += bool(np.linalg.norm(solve_gram(a, b, math.inf)) > radius)
                break

    check()
    assert kinds["singular"] >= kinds["draws"] / 4 and kinds["binding"] >= 10, kinds


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

    def test_base_ridge_solutions_whose_squares_overflow_warn_of_nothing(self):
        """Features near 1e-6 and labels near 1e150 give a first local
        solve a base-ridge solution near 1e154, whose squares pass the
        largest double in solve_gram's inside-the-ball screen. The fit
        ignores that overflow, as it does a singular block's NaN, and ends
        finite and in the ball with no warning."""
        rng = np.random.default_rng(0)
        xg, xl = rng.normal(0, 1e-6, (2, 4, 2)), rng.normal(0, 1e-6, (2, 4, 2))
        y = rng.normal(0, 1e150, (2, 4))
        xlt = xl.swapaxes(1, 2)
        first = solver._stacked_solve(xlt @ xl + solver._ridge_diagonal(2),
                                      (xlt @ y[..., None])[..., 0])
        with np.errstate(over="ignore"):
            assert np.isinf(np.vecdot(first, first)).any()  # the screen overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            wg, wls, obj = alternating_joint_ls(xg, xl, y, radius=100.0)
        assert np.isfinite(obj) and np.isfinite(wg).all() and np.isfinite(wls).all()
        assert max(np.linalg.norm(wg), *np.linalg.norm(wls, axis=1)) <= 100.0

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


@st.composite
def joint_fits(draw):
    """A comparator fit drawn over P 1-6, n 1-300, dg and dl 0-4, data scales
    1e-150 to 1e152, a radius from binding to loose and tol in {0, 1e-12,
    1e-8, 1e-4}: labels from a joint model plus noise, on the features' scale
    or on another."""
    p, n = draw(st.integers(1, 6)), draw(st.integers(1, 300))
    dg, dl = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    x_scale = 10.0 ** draw(st.integers(-150, 152))
    y_scale = draw(st.sampled_from([x_scale, 10.0 ** draw(st.integers(-150, 152))]))
    noise = draw(st.sampled_from((0.0, 1e-6, 1e-2, 1.0)))
    radius = 10.0 ** draw(st.floats(-3.0, 3.0))
    tol = draw(st.sampled_from((0.0, 1e-12, 1e-8, 1e-4)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    xg, xl = rng.normal(0, x_scale, (p, n, dg)), rng.normal(0, x_scale, (p, n, dl))
    model = xg @ rng.normal(0, 1, dg) + np.vecdot(xl, rng.normal(0, 1, (p, 1, dl)))
    y = model * (y_scale / x_scale) + rng.normal(0, noise * y_scale, (p, n))
    return xg, xl, y, radius, tol


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_screened_comparator_keeps_the_oracle_bits(monkeypatch):
    """alternating_joint_ls skips the n-row objective while its Gram-space
    screen proves the loop goes on; its (wg, wls, objective) must still have
    the bits of the oracle, which evaluates the objective after every
    alternation. 150 derandomized draws (joint_fits). So that the check is
    not vacuous, each of these kinds must make up at least 10% of them:
    draws that skip an evaluation, that skip and then stop on the
    alternation the screen hands over, that never skip, that bind the
    radius, that have a zero-width block, and that run at tol 0. Where the
    C loops run alternations, the count native.alternate returns adds their
    two solves each."""
    objective, solve = solver._objective, solver.solve_gram
    counts = {"evaluations": 0, "solves": 0}

    def counted(name, f, count=lambda result: 1):
        def wrapper(*args):
            result = f(*args)
            counts[name] += count(result)
            return result
        return wrapper

    monkeypatch.setattr(solver, "_objective", counted("evaluations", objective))
    monkeypatch.setattr(solver, "solve_gram", counted("solves", solve))
    monkeypatch.setattr(native, "alternate", counted("solves", native.alternate,
                                                     lambda result: 2 * result[0]))
    kinds = {k: 0 for k in ("skip", "stop at hand-over", "never skip", "binding", "zero width",
                            "tol 0")}

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(joint_fits())
    def check(fit):
        xg, xl, y, radius, tol = fit
        want_g, want_l, want_obj = alternating_joint_ls_oracle(list(xg), list(xl), list(y),
                                                               radius, tol)
        counts.update(evaluations=0, solves=0)
        wg, wls, obj = alternating_joint_ls(xg, xl, y, radius, tol)
        assert wg.tobytes() == want_g.tobytes()
        assert wls.tobytes() == np.array(want_l).reshape(wls.shape).tobytes()
        assert obj.hex() == want_obj.hex()
        alternations = counts["solves"] // 2
        skipped = alternations + 1 - counts["evaluations"]
        kinds["skip"] += skipped > 0
        kinds["stop at hand-over"] += skipped > 0 and counts["evaluations"] == 2
        kinds["never skip"] += skipped == 0
        norms = np.sqrt(np.append(np.vecdot(wls, wls), wg @ wg))
        kinds["binding"] += bool(np.any(norms >= radius * (1 - 1e-9)))
        kinds["zero width"] += 0 in xg.shape + xl.shape
        kinds["tol 0"] += tol == 0.0

    check()
    assert min(kinds.values()) >= 15, kinds
