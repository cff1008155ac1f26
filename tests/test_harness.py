import numpy as np
import pytest

from fedres.cli import main as cli_main
from fedres.core import HyperParams, Sample
from fedres.datagen import gen_example2
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
        assert compute_regret(run.traces, comparator=(wg, [wl])) == pytest.approx(0.0, abs=1e-15)

    def test_realizable_comparator_leaves_played_loss(self, rng):
        wg_true, wl_true = np.array([0.4]), np.array([-0.3])
        xg, xl = rng.normal(0, 1, (5, 1, 1)), rng.normal(0, 1, (5, 1, 1))
        y = np.vecdot(xg, wg_true) + np.vecdot(xl, wl_true)
        run = columns_run(y - np.sqrt(1.7), y, xg, xl)  # played loss fixed at 1.7
        reg = compute_regret(run.traces, comparator=(wg_true, [wl_true]))
        assert reg == pytest.approx(1.7, rel=1e-12)

    def test_hand_summed_two_client_three_round_instance(self):
        run = scripted_run()
        wg = np.array([0.1, 0.0])
        wls = [np.array([1.0]), np.array([2.0])]
        expected = 0.0
        for tr in run.traces:
            s = tr.sample
            wl = wls[tr.client_id]
            comp = (s.y - (wg @ s.x_global + wl @ s.x_local)) ** 2
            expected += tr.loss - comp
        expected /= 6.0
        assert compute_regret(run.traces, comparator=(wg, wls)) == pytest.approx(expected, rel=1e-12)

    def test_default_comparator_never_increases_regret(self, rng):
        v = np.array([0.5, 0.5])
        ds = gen_example2(2, 2, v, 0.0, 60, seed=0)
        res = run_fedres_sgd(ds, 0, HyperParams(eta_global=0.05, eta_local=0.05), 60, 0)
        fitted = compute_regret(res.traces, radius=100.0)
        true = compute_regret(res.traces, comparator=(np.zeros(2), [v, -v]))
        assert fitted <= true + 1e-9

    def test_empty_trace_rejected(self):
        with pytest.raises(ConfigError):
            compute_regret([])

    def test_sum_is_the_record_order_loop(self, rng):
        """Bit for bit the `total += gap` loop from 0.0, which also turns an
        all -0.0 sum into 0.0."""
        def regret_of_gaps(gaps):
            # zero labels and a zero comparator price every record at +0.0
            n, p = gaps.shape
            run = columns_run(np.zeros((n, p)), np.zeros((n, p)), np.ones((n, p, 1)),
                              np.ones((n, p, 1)))
            run.loss = gaps
            return compute_regret(run.traces, comparator=(np.zeros(1), [np.zeros(1)] * p))

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
                return [
                    [
                        Sample(np.array([1.0]), np.array([0.0]), 1.0),
                        Sample(np.array([-1.0]), np.array([0.0]), -1.0),
                        Sample(np.array([1.0]), np.array([0.0]), -1.0),
                    ]
                ]

        class R:
            final_global = np.array([2.0])
            final_locals = [np.array([0.0])]

        assert evaluate_accuracy(TinyDataset(), R()) == pytest.approx(2 / 3)


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
            ds = build_dataset(cfg, 0)
            result, view = dispatch(cfg, ds, 0)
            assert len(result.traces) == 8 * 2


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
            samples = [Sample(xs[t], zs[t], float(ys[t])) for t in range(rounds + test_rounds)]
            streams.append(samples[:rounds])
            data.append(ClientData(train=samples[:rounds], test=samples[rounds:], task=("shared",)))
        return FederatedDataset(clients=data, d_global=2, d_locals=[2] * clients, pregenerated=streams)

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
    ])
    def test_bad_bandit_and_noise_settings_are_config_errors(self, argv, capsys):
        assert cli_main(argv + ["--rounds", "10", "--output", "-"]) == 1
        assert "config error" in capsys.readouterr().err

    def test_usage_error_is_config_error(self, capsys):
        assert cli_main(["run", "--bogus-flag"]) == 1
        assert cli_main(["sweep-clients", "--rounds", "4"]) == 1  # missing --values

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
