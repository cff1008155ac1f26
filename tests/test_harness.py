import concurrent.futures
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from fedres import harness
from fedres.baselines import central_view, independent_view
from fedres.cli import _config, build_parser
from fedres.cli import main as cli_main
from fedres.core import HyperParams
from fedres.datagen import gen_appendixc, gen_example2, parse_libsvm, partition_federated
from fedres.engine import run_fedres_sgd
from fedres.errors import ConfigError
from fedres.harness import (
    CSV_HEADER,
    ExperimentConfig,
    appendixc_rows,
    bandit_rows,
    build_dataset,
    compute_regret,
    dispatch,
    evaluate_accuracy,
    run_experiment,
    sweep,
)
from fedres.results import RunResult

from test_datagen import toy_corpus


def columns_run(prediction, label, x_global, x_local) -> RunResult:
    """A run of N rounds and P clients from (N, P) predictions and labels and
    (N, P, d) features (batch size 1, zero final models)."""
    prediction, label = np.asarray(prediction, float), np.asarray(label, float)
    x_global, x_local = np.asarray(x_global, float), np.asarray(x_local, float)
    clients = prediction.shape[1]
    return RunResult(prediction[..., None], label[..., None], x_global[:, :, None],
                     x_local[:, :, None], np.zeros(x_global.shape[-1]),
                     [np.zeros(x_local.shape[-1])] * clients, [len(prediction)] * clients)


def scripted_run() -> RunResult:
    """2 clients x 3 rounds with hand-computable losses."""
    t = np.arange(1.0, 4.0)[:, None]
    i = np.arange(2.0)[None, :]
    ones = np.ones((3, 2, 1))
    return columns_run(0.25 * t * (i + 1), t + 0 * i,
                       np.concatenate([ones, 0 * ones], axis=-1), 0.5 * (i + 1)[..., None] * ones)


class TestComputeRegret:
    def test_zero_when_comparator_matches_played_models(self, rng):
        # played pair == comparator pair -> identical losses, regret 0
        wg, wl = np.array([0.5, -0.2]), np.array([0.3])
        xg, xl, y = rng.normal(0, 1, (4, 1, 2)), rng.normal(0, 1, (4, 1, 1)), rng.normal(size=(4, 1))
        run = columns_run(np.vecdot(xg, wg) + np.vecdot(xl, wl), y, xg, xl)
        assert compute_regret(run, comparator=(wg, [wl])) == pytest.approx(0.0, abs=1e-15)

    def test_realizable_comparator_leaves_played_loss(self, rng):
        wg_true, wl_true = np.array([0.4]), np.array([-0.3])
        xg, xl = rng.normal(0, 1, (5, 1, 1)), rng.normal(0, 1, (5, 1, 1))
        y = np.vecdot(xg, wg_true) + np.vecdot(xl, wl_true)
        run = columns_run(y - np.sqrt(1.7), y, xg, xl)  # played loss fixed at 1.7
        reg = compute_regret(run, comparator=(wg_true, [wl_true]))
        assert reg == pytest.approx(1.7, rel=1e-12)

    def test_hand_summed_two_client_three_round_instance(self):
        run = scripted_run()
        wg = np.array([0.1, 0.0])
        wls = [np.array([1.0]), np.array([2.0])]
        expected = 0.0
        for n in range(run.rounds):
            for i, wl in enumerate(wls):
                xg, xl, y = run.x_global[n, i, 0], run.x_local[n, i, 0], run.label[n, i, 0]
                comp = (y - (wg @ xg + wl @ xl)) ** 2
                expected += run.loss[n, i] - comp
        expected /= 6.0
        assert compute_regret(run, comparator=(wg, wls)) == pytest.approx(expected, rel=1e-12)

    def test_default_comparator_never_increases_regret(self, rng):
        v = np.array([0.5, 0.5])
        ds = gen_example2(2, 2, v, 0.0, 60, seed=0)
        res = run_fedres_sgd(ds, 0, HyperParams(eta_global=0.05, eta_local=0.05), 60, 0)
        fitted = compute_regret(res, radius=100.0)
        true = compute_regret(res, comparator=(np.zeros(2), [v, -v]))
        assert fitted <= true + 1e-9

    def test_empty_trace_rejected(self):
        empty = columns_run(np.zeros((0, 1)), np.zeros((0, 1)), np.zeros((0, 1, 1)),
                            np.zeros((0, 1, 1)))
        with pytest.raises(ConfigError):
            compute_regret(empty)

    def test_sum_is_the_record_order_loop(self, rng):
        """Bit for bit the `total += gap` loop from 0.0, which also turns an
        all -0.0 sum into 0.0."""
        def regret_of_gaps(gaps):
            # zero labels and a zero comparator price every record at +0.0
            n, p = gaps.shape
            run = columns_run(np.zeros((n, p)), np.zeros((n, p)), np.ones((n, p, 1)),
                              np.ones((n, p, 1)))
            run.loss = gaps
            return compute_regret(run, comparator=(np.zeros(1), [np.zeros(1)] * p))

        spread = 10.0 ** rng.integers(-8, 9, (50, 7))
        for gaps in (rng.normal(0, 1, (50, 7)) * spread, np.full((4, 3), -0.0)):
            total = 0.0
            for gap in gaps.ravel().tolist():
                total += gap
            assert regret_of_gaps(gaps).hex() == (total / gaps.size).hex()


class TestAccuracy:
    def test_sign_agreement(self):
        class TinyDataset:
            def test_sets(self):
                return [(np.array([[1.0], [-1.0], [1.0]]), np.zeros((3, 1)),
                         np.array([1.0, -1.0, -1.0]))]

        class R:
            final_global = np.array([2.0])
            final_locals = [np.array([0.0])]

        assert evaluate_accuracy(TinyDataset(), R()) == pytest.approx(2 / 3)

    @staticmethod
    def per_client_loop(dataset, result) -> float:
        """The client-by-client accuracy that the grouped passes replaced."""
        correct = n = 0
        for (xg, xl, y), wl in zip(dataset.test_sets(), result.final_locals):
            if not len(y):
                continue
            pred = np.vecdot(xg, result.final_global) + np.vecdot(xl, wl)
            correct += int(np.count_nonzero((pred >= 0) == (y > 0)))
            n += len(y)
        return correct / n if n else float("nan")

    @pytest.mark.parametrize("group_rows", [4, 10, harness.ACCURACY_ROWS])
    def test_grouped_passes_are_the_per_client_loop(self, rng, monkeypatch, group_rows):
        monkeypatch.setattr(harness, "ACCURACY_ROWS", group_rows)
        corpus = parse_libsvm(toy_corpus(rng, n=400, k=8))
        ds = partition_federated(corpus, clients=4, n0=10, seed=3)
        for client, keep in zip(ds.clients, (None, 3, 0, 7)):  # unequal and empty test sets
            client.test = tuple(a[:keep] for a in client.test)
        assert [len(c.test[2]) for c in ds.clients] == [12, 3, 0, 7]
        seen = set()
        for algo, view in (("fedres-sgd", ds), ("independent", independent_view(ds)),
                           ("central", central_view(ds))):
            res = dispatch(ExperimentConfig(algo=algo, clients=4, rounds=40), view, 0)
            acc = evaluate_accuracy(view, res)
            assert acc == self.per_client_loop(view, res)
            seen.add(acc)
        assert len(seen) > 1  # the views route features differently

    def test_no_test_rows_is_nan(self, rng):
        ds = gen_appendixc(20, 0)  # test sets are empty blocks
        res = run_fedres_sgd(ds, 0, HyperParams(), 20, 0)
        assert np.isnan(evaluate_accuracy(ds, res))
        corpus = parse_libsvm(toy_corpus(rng, n=400, k=8))
        ds = partition_federated(corpus, clients=2, n0=10, seed=3)
        for client in ds.clients:
            client.test = tuple(a[:0] for a in client.test)
        res = run_fedres_sgd(ds, 0, HyperParams(), 20, 0)
        assert np.isnan(evaluate_accuracy(ds, res))


class TestConfigValidation:
    def test_rejects_unknown_algo(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(algo="nope").validate()

    def test_rejects_erm_with_batches(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(algo="fedres-erm", batch_size=5, rounds=500).validate()

    def test_rejects_indivisible_batches(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(batch_size=3, rounds=10).validate()

    def test_dispatch_covers_all_algos(self, rng):
        cfg0 = ExperimentConfig(rounds=8, clients=2, rollouts=1, data="example2", dim=2)
        for algo in ("independent", "central", "fedres-sgd", "fedres-erm", "fictitious",
                     "fedres-sgd-misaligned", "fedres-sgd-asymmetric"):
            cfg = ExperimentConfig(**{**cfg0.__dict__, "algo": algo})
            result = dispatch(cfg, build_dataset(cfg, 0), 0)
            assert result.loss.shape == (8, 2)

    def test_build_dataset_gives_each_algo_its_view(self):
        for algo, d_global, d_local in (("independent", 0, 4), ("central", 2, 0),
                                        ("fedres-erm", 2, 2)):
            view = build_dataset(ExperimentConfig(algo=algo, clients=2, dim=2), 0)
            widths = [tuple(a.shape[1] for a in view.stream_block(i, 1, 0)[:2]) for i in range(2)]
            assert widths == [(d_global, d_local)] * 2

    def test_independent_runs_without_delays(self):
        # Independent has nothing to communicate: its delays only label the row
        def metrics(cfg):
            return [row.split(",")[-3:] for row in run_experiment(cfg)]

        base = ExperimentConfig(algo="independent", rounds=60, clients=2, dim=2, rollouts=2)
        assert metrics(replace(base, alpha=3, beta=2)) == metrics(base)
        central = replace(base, algo="central")
        assert metrics(replace(central, alpha=3, beta=2)) != metrics(central)


class TestCsvRows:
    def test_header_schema(self):
        assert (
            CSV_HEADER
            == "rollout,algo,clients,delay_up,delay_down,batch,rounds,axis_value,train_loss,test_accuracy,avg_regret"
        )

    def test_rows_are_deterministic(self):
        cfg = ExperimentConfig(rounds=20, clients=2, rollouts=2, dim=2)
        assert run_experiment(cfg) == run_experiment(cfg)

    def test_parallel_equals_sequential(self):
        seq = ExperimentConfig(rounds=20, clients=2, rollouts=3, dim=2, jobs=1)
        par = ExperimentConfig(rounds=20, clients=2, rollouts=3, dim=2, jobs=2)
        assert run_experiment(seq) == run_experiment(par)

    def test_sweep_ax_values_recorded(self):
        cfg = ExperimentConfig(rounds=12, clients=2, rollouts=1, dim=2)
        rows = sweep(cfg, "delay", [0, 4])
        assert len(rows) == 2
        assert rows[0].split(",")[7] == "0" and rows[1].split(",")[7] == "4"
        tau4 = rows[1].split(",")
        assert tau4[3] == "2" and tau4[4] == "2"  # alpha=tau//2, beta=rest

    def test_sweep_rejects_unknown_axis(self):
        with pytest.raises(ConfigError):
            sweep(ExperimentConfig(), "flavor", [1])

    def test_appendixc_rows_smoke(self):
        rows = appendixc_rows(rounds=50, rollouts=2, eta=0.05)
        assert len(rows) == 6
        algos = {r.split(",")[1] for r in rows}
        assert algos == {"fedres-sgd", "fedres-erm", "fictitious"}

    def test_bandit_rows_smoke(self):
        cfg = ExperimentConfig(rounds=30, clients=2, rollouts=1, exploration_period=5)
        rows = bandit_rows(cfg)
        assert len(rows) == 2
        assert {r.split(",")[1] for r in rows} == {"bandit-epsgreedy", "bandit-uniform"}


class TestClientScaling:
    @staticmethod
    def shared_global_env(clients, rounds, seed, noise=0.5, test_rounds=300):
        """Labels depend only on the global block; local features are noise."""
        from fedres.datagen import ClientData, FederatedDataset

        rng = np.random.default_rng(seed)
        u = np.array([0.8, -0.6])
        data, streams = [], []
        for _ in range(clients):
            xs = rng.standard_normal((rounds + test_rounds, 2))
            zs = rng.standard_normal((rounds + test_rounds, 2))
            ys = xs @ u + noise * rng.standard_normal(rounds + test_rounds)
            train = xs[:rounds], zs[:rounds], ys[:rounds]
            streams.append(train)
            data.append(ClientData(train=train, test=(xs[rounds:], zs[rounds:], ys[rounds:]),
                                   task=("shared",)))
        return FederatedDataset(clients=data, pregenerated=streams)

    def test_accuracy_non_decreasing_in_clients_within_noise(self):
        rounds = 60
        diffs = []
        for r in range(10):
            accs = {}
            for clients in (2, 10):
                ds = self.shared_global_env(clients, rounds, 300 + r)
                eta = 0.5 / np.sqrt(rounds * clients)
                hp = HyperParams(eta_global=eta, eta_local=eta)
                res = run_fedres_sgd(ds, 0, hp, rounds, 300 + r)
                accs[clients] = evaluate_accuracy(ds, res)
            diffs.append(accs[10] - accs[2])
        assert np.mean(diffs) >= 0.0
        assert min(diffs) >= -0.03  # non-decreasing within per-seed noise


class TestCli:
    def test_run_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        code = cli_main(
            ["run", "--algo", "fedres-sgd", "--rounds", "10", "--clients", "2",
             "--dim", "2", "--output", str(out)]
        )
        assert code == 0
        text = out.read_text().splitlines()
        assert text[0] == CSV_HEADER and len(text) == 2

    def test_stdout_output(self, capsys):
        code = cli_main(["run", "--rounds", "6", "--clients", "2", "--dim", "2", "--output", "-"])
        assert code == 0
        assert capsys.readouterr().out.startswith(CSV_HEADER)

    def test_config_error_exit_code(self, capsys):
        code = cli_main(["run", "--rounds", "10", "--batch-size", "3", "--output", "-"])
        assert code == 1

    @pytest.mark.parametrize("argv", [
        ["bandit", "--period", "0"],
        ["bandit", "--actions", "1"],
        ["bandit", "--noise", "-1"],
        ["run", "--noise", "-1"],
        ["run", "--dim", "0"],
        ["run", "--dim", "-1"],
        ["run", "--v-norm", "nan"],
        ["run", "--test-rounds", "-1"],
        ["bandit", "--noise", "inf"],  # not a level: every reward would clip to 0 or 1
        ["run", "--noise", "inf"],
        # data too large to allocate: rejected by its size before anything is drawn
        ["run", "--dim", "100000000000"],
        ["run", "--rounds", "100000000000"],
        ["run", "--clients", "100000000000"],
        ["run", "--test-rounds", "100000000000"],
        ["run", "--data", "appendixc", "--clients", "1", "--rounds", "100000000000"],
        ["appendixc", "--rounds", "100000000000"],
        ["bandit", "--rounds", "100000000000"],
        ["bandit", "--actions", "100000000000"],
        ["sweep-clients", "--values", "2", "100000000000"],
        # quadratic in the dimension: the regret comparator's clients x (2 dim)^2 Gram
        # entries, and up to 129 times as many for an exact learner's prefix-sum tables
        ["run", "--dim", "20000"],
        ["run", "--algo", "fedres-erm", "--dim", "2000", "--rounds", "200"],
        ["run", "--algo", "fictitious", "--dim", "2000", "--rounds", "200"],
    ])
    def test_bad_bandit_and_noise_settings_are_config_errors(self, argv, capsys):
        # argv's own flags come last, so they override the short horizon
        assert cli_main([argv[0], "--rounds", "10", "--output", "-", *argv[1:]]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err
        if {"100000000000", "20000", "2000"} & set(argv):
            assert "float64 entries" in err

    def test_bandit_rejects_batching(self, capsys):
        # the policies take one learner step per exploration round
        assert cli_main(["bandit", "--batch-size", "5", "--rounds", "10", "--output", "-"]) == 1
        assert "batching" in capsys.readouterr().err
        with pytest.raises(ConfigError):
            bandit_rows(ExperimentConfig(rounds=10, batch_size=5))

    def test_non_finite_corpus_value_exit_code(self, tmp_path, rng, capsys):
        lines = toy_corpus(rng, n=200, k=8).splitlines()
        lines[7] = lines[7].split()[0] + " 1:nan"
        src = tmp_path / "corpus.txt"
        src.write_text("\n".join(lines) + "\n")
        for algo in ("fedres-sgd", "independent", "fedres-erm"):
            code = cli_main(["run", "--data", f"libsvm:{src}", "--algo", algo, "--clients", "2",
                             "--rounds", "30", "--output", "-"])
            assert code == 1
            assert "line 8: non-finite" in capsys.readouterr().err

    def test_usage_error_is_config_error(self, capsys):
        assert cli_main(["run", "--bogus-flag"]) == 1
        assert cli_main(["sweep-clients", "--rounds", "4"]) == 1  # missing --values

    @pytest.mark.parametrize("argv", [
        ["run", "--clients", "2", "--dim", "2"],
        ["sweep-delay", "--values", "0", "--clients", "2", "--dim", "2"],
        ["appendixc"],
        ["bandit", "--clients", "2"],
    ])
    def test_negative_base_seed_is_config_error(self, argv, capsys):
        argv = [*argv, "--rounds", "10", "--rollouts", "1", "--base-seed", "-1", "--output", "-"]
        assert cli_main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err

    def test_negative_partition_seed_is_config_error(self, tmp_path, rng, capsys):
        src = tmp_path / "corpus.txt"
        src.write_text(toy_corpus(rng, n=200, k=8))
        argv = ["partition", str(src), "--clients", "3", "--seed", "-1",
                "--output", str(tmp_path / "manifest.txt")]
        assert cli_main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err
        assert not (tmp_path / "manifest.txt").exists()

    def test_io_error_exit_code(self, capsys):
        code = cli_main(["partition", "/nonexistent/file.libsvm", "--output", "-"])
        assert code == 2

    def test_invariant_breach_exit_code(self, monkeypatch, capsys):
        from fedres import cli
        from fedres.errors import InvariantError

        def boom(cfg):
            raise InvariantError("forced breach")

        monkeypatch.setattr(cli, "run_experiment", boom)
        code = cli_main(["run", "--rounds", "4", "--clients", "2", "--dim", "2", "--output", "-"])
        assert code == 3

    def test_partition_manifest(self, tmp_path, rng):
        src = tmp_path / "corpus.txt"
        src.write_text(toy_corpus(rng, n=200, k=8))
        out = tmp_path / "manifest.txt"
        code = cli_main(["partition", str(src), "--clients", "3", "--output", str(out)])
        assert code == 0
        assert len(out.read_text().strip().splitlines()) > 0

    @pytest.mark.parametrize("argv", [["run"], ["bandit"], ["sweep-delay", "--values", "0"],
                                      ["sweep-clients", "--values", "2"]])
    def test_defaults_are_the_config_defaults(self, argv):
        assert _config(build_parser().parse_args(argv)) == ExperimentConfig()

    def test_sweep_clients_cli(self, tmp_path):
        out = tmp_path / "c.csv"
        code = cli_main(["sweep-clients", "--values", "2", "4", "--rounds", "8", "--rollouts", "2",
                         "--dim", "2", "--output", str(out)])
        assert code == 0
        header, *rows = (line.split(",") for line in out.read_text().splitlines())
        assert len(rows) == 4
        for column in ("clients", "axis_value"):
            assert [r[header.index(column)] for r in rows] == ["2", "2", "4", "4"]

    def test_sweep_delay_cli(self, tmp_path):
        out = tmp_path / "s.csv"
        code = cli_main(
            ["sweep-delay", "--values", "0", "2", "--rounds", "8", "--clients", "2",
             "--dim", "2", "--output", str(out)]
        )
        assert code == 0
        assert len(out.read_text().splitlines()) == 3

    def test_bandit_cli(self, tmp_path):
        out = tmp_path / "b.csv"
        code = cli_main(
            ["bandit", "--rounds", "20", "--clients", "2", "--period", "5", "--output", str(out)]
        )
        assert code == 0
        assert len(out.read_text().splitlines()) == 3

    def test_bandit_jobs_write_identical_csvs(self, tmp_path, monkeypatch, capsys):
        pools = []

        class RecordingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(kwargs["max_workers"])
                super().__init__(*args, **kwargs)

        # the harness imports the pool when a run needs one
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        written = []
        for jobs in (1, 2):
            out = tmp_path / f"b{jobs}.csv"
            assert cli_main(["bandit", "--rounds", "40", "--clients", "2", "--period", "5",
                             "--rollouts", "3", "--jobs", str(jobs), "--output", str(out)]) == 0
            written.append(out.read_bytes())
        assert written[0] == written[1]
        assert pools == [2]  # only the jobs=2 run used a pool
        rows = written[0].decode().splitlines()[1:]
        assert [r.split(",")[:2] for r in rows] == [
            [str(r), algo] for r in range(3) for algo in ("bandit-epsgreedy", "bandit-uniform")]

    def test_bandit_ignores_the_example2_client_rule(self, tmp_path, capsys):
        # the README's bandit example uses an odd client count; bandit runs draw no example2 data
        out = tmp_path / "b.csv"
        code = cli_main(["bandit", "--period", "10", "--actions", "4", "--clients", "5",
                         "--rounds", "50", "--output", str(out)])
        assert code == 0
        assert len(out.read_text().splitlines()) == 3
        assert cli_main(["run", "--data", "example2", "--clients", "5", "--rounds", "10",
                         "--output", "-"]) == 1

    def test_divergence_exit_code(self, capsys):
        code = cli_main(["run", "--data", "example2", "--clients", "2", "--rounds", "200",
                         "--radius", "1e300", "--eta-global", "50", "--eta-local", "50",
                         "--output", "-"])
        assert code == 3
        assert "round" in capsys.readouterr().err

    def test_appendixc_cli(self, tmp_path):
        out = tmp_path / "a.csv"
        code = cli_main(
            ["appendixc", "--rounds", "40", "--rollouts", "1", "--eta", "0.05",
             "--output", str(out)]
        )
        assert code == 0
        assert len(out.read_text().splitlines()) == 4

    def test_output_dir_env(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("FEDRES_OUTPUT_DIR", str(tmp_path))
        code = cli_main(["run", "--rounds", "6", "--clients", "2", "--dim", "2",
                         "--output", "sub/r.csv"])
        assert code == 0
        assert (tmp_path / "sub" / "r.csv").exists()

    def test_relative_output_dir_holds_default_names(self, tmp_path, monkeypatch, rng, capsys):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("FEDRES_OUTPUT_DIR", "out")
        (tmp_path / "corpus.txt").write_text(toy_corpus(rng, n=200, k=8))
        assert cli_main(["run", "--rounds", "6", "--clients", "2", "--dim", "2"]) == 0
        assert cli_main(["partition", "corpus.txt", "--clients", "3"]) == 0
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["partition.txt", "run.csv"]


def test_start_up_imports_neither_the_pool_nor_masked_arrays():
    """Importing the CLI loads no process pool (a run imports one when it
    needs it) and no numpy.ma; a fresh interpreter shows what an import pulls in."""
    code = ("import sys, fedres.cli; "
            "print(sorted({'concurrent.futures', 'numpy.ma'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={"PYTHONPATH": str(Path(harness.__file__).parents[1])})
    assert out.stdout.strip() == "[]"
