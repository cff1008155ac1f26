import numpy as np
import pytest

from fedres.datagen import (
    MulticlassCorpus,
    gen_appendixc,
    gen_example2,
    parse_libsvm,
    partition_federated,
    serialize_libsvm,
    write_partition_manifest,
)
from fedres.engine import build_streams
from fedres.errors import ConfigError


def toy_corpus(rng, n=200, k=8, d=6):
    """Balanced k-class corpus in LIBSVM text form."""
    lines = []
    for i in range(n):
        label = (i % k) + 1
        feats = rng.normal(0, 1, d)
        toks = [str(label)] + [f"{j + 1}:{float(feats[j])!r}" for j in range(d)]
        lines.append(" ".join(toks))
    return "\n".join(lines) + "\n"


class TestParser:
    def test_basic_lines(self):
        corpus = parse_libsvm("1 1:0.5 3:2.0\n2 2:1\n")
        assert corpus.labels.tolist() == [1, 2]
        assert corpus.features.tolist() == [[0.5, 0.0, 2.0], [0.0, 1.0, 0.0]]
        assert corpus.line_numbers.tolist() == [1, 2]
        assert corpus.d == 3 and corpus.n_classes == 2

    def test_classes_are_sorted_distinct_ints(self):
        corpus = parse_libsvm("7 1:1\n-2 1:1\n7 1:2\n3 1:0\n-2 1:5\n")
        assert corpus.classes == [-2, 3, 7]
        assert all(type(c) is int for c in corpus.classes)
        empty = MulticlassCorpus(corpus.labels[:0], corpus.features[:0], corpus.line_numbers[:0])
        assert empty.classes == []

    def test_blank_lines_skipped_with_numbering(self):
        corpus = parse_libsvm("1 1:1\n\n2 1:2\n")
        assert corpus.line_numbers.tolist() == [1, 3]

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("abc 1:1\n", "line 1"),
            ("1 0:2\n", "index 0"),
            ("1 1:1 1:2\n", "duplicate index 1"),
            ("1 1:1\n2 3\n", "line 2"),
            ("1 x:1\n", "malformed"),
            ("1 1:y\n", "malformed"),
            ("1 1:0.5\n\n2 1:1 2:nan\n3 1:2\n", "line 3: non-finite"),
            ("1 1:0.5\n\n2 1:1 2:inf\n3 1:2\n", "line 3: non-finite"),
            ("1 1:0.5\n\n2 1:1 2:-inf\n3 1:2\n", "line 3: non-finite"),
            ("1 1:0.5\n\n2 1:1 2:1e400\n3 1:2\n", "line 3: non-finite"),
        ],
    )
    def test_errors_carry_line_numbers(self, text, fragment):
        with pytest.raises(ConfigError, match=fragment):
            parse_libsvm(text)

    def test_round_trip(self, rng):
        corpus = parse_libsvm(toy_corpus(rng, n=30, k=6, d=4))
        again = parse_libsvm(serialize_libsvm(corpus))
        assert again.labels.tolist() == corpus.labels.tolist()
        assert np.array_equal(again.features, corpus.features)
        assert again.d == corpus.d

    def test_gzip_loading(self, rng, tmp_path):
        import gzip

        from fedres.datagen import load_libsvm

        text = toy_corpus(rng, n=20, k=6, d=3)
        plain = tmp_path / "c.txt"
        plain.write_text(text)
        packed = tmp_path / "c.txt.gz"
        with gzip.open(packed, "wt", encoding="utf-8") as fh:
            fh.write(text)
        a, b = load_libsvm(plain), load_libsvm(packed)
        assert np.array_equal(a.features, b.features)
        assert a.labels.tolist() == b.labels.tolist()

    def test_round_trip_preserves_trailing_zero_column(self):
        corpus = parse_libsvm("1 1:1 4:0.0\n2 2:3\n")
        assert corpus.d == 4
        again = parse_libsvm(serialize_libsvm(corpus))
        assert again.d == 4
        assert np.array_equal(again.features, corpus.features)


class TestPartition:
    def test_merged_subset_size(self, rng):
        corpus = parse_libsvm(toy_corpus(rng, n=300, k=10))
        ds = partition_federated(corpus, clients=3, n0=5, seed=0)
        merged, neg = ds.clients[0].task
        assert len(merged) == 3  # floor(0.3 * 10)
        assert neg not in merged

    def test_train_size_capped_by_n0(self, rng):
        corpus = parse_libsvm(toy_corpus(rng, n=400, k=8))
        ds = partition_federated(corpus, clients=2, n0=30, seed=1)
        for c in ds.clients:
            assert len(c.train[2]) <= 60

    def test_disjointness_and_balance(self, rng):
        corpus = parse_libsvm(toy_corpus(rng, n=200, k=8))
        for seed in range(5):
            ds = partition_federated(corpus, clients=4, n0=30, seed=seed)
            all_lines = []
            for c in ds.clients:
                lines = c.train_lines + c.test_lines
                all_lines.extend(lines)
                labels = c.train[2].tolist()
                assert labels.count(1.0) == labels.count(-1.0) == len(labels) // 2
                test_labels = c.test[2].tolist()
                assert test_labels.count(1.0) == test_labels.count(-1.0)
            assert len(all_lines) == len(set(all_lines))

    def test_feature_split_partitions_dimensions(self, rng):
        for d, expected_global in [(6, 3), (7, 4)]:
            corpus = parse_libsvm(toy_corpus(rng, n=200, k=8, d=d))
            ds = partition_federated(corpus, clients=2, n0=10, seed=3)
            assert len(ds.global_index) == expected_global
            combined = sorted(list(ds.global_index) + list(ds.local_index))
            assert combined == list(range(d))

    def test_needs_six_classes(self, rng):
        corpus = parse_libsvm(toy_corpus(rng, n=100, k=5))
        with pytest.raises(ConfigError):
            partition_federated(corpus, clients=2, n0=10, seed=0)

    def test_too_many_clients_rejected(self, rng):
        corpus = parse_libsvm(toy_corpus(rng, n=40, k=8))
        with pytest.raises(ConfigError):
            partition_federated(corpus, clients=30, n0=10, seed=0)

    def test_stream_cycles_reshuffled_epochs(self, rng):
        corpus = parse_libsvm(toy_corpus(rng, n=200, k=8))
        ds = partition_federated(corpus, clients=2, n0=10, seed=4)
        def rows(block):
            return [tuple(row) for row in np.column_stack(block).tolist()]

        pool = rows(ds.clients[0].train)
        assert len(set(pool)) == len(pool)  # distinct rows, so an epoch is a permutation
        horizon = 3 * len(pool)
        stream = rows(ds.stream_block(0, horizon, 4))
        for e in range(3):
            epoch = stream[e * len(pool) : (e + 1) * len(pool)]
            assert sorted(epoch) == sorted(pool)
        assert rows(ds.stream_block(0, horizon, 4)) == stream

    def test_pregenerated_streams_build_no_generator(self, monkeypatch):
        ds = gen_example2(4, 2, np.ones(2), 0.0, 10, 0)
        want = build_streams(ds, 10, 0)

        def no_generator(*args):
            raise AssertionError("a pre-generated stream built a generator")

        monkeypatch.setattr(np.random, "default_rng", no_generator)
        for a, b in zip(build_streams(ds, 10, 0), want):
            assert a.tobytes() == b.tobytes()

    def test_manifest_lines(self, rng, tmp_path):
        corpus = parse_libsvm(toy_corpus(rng, n=200, k=8))
        ds = partition_federated(corpus, clients=3, n0=10, seed=5)
        path = tmp_path / "manifest.txt"
        write_partition_manifest(ds, path)
        rows = path.read_text().strip().splitlines()
        expected = sum(len(c.train_lines) + len(c.test_lines) for c in ds.clients)
        assert len(rows) == expected
        assert all(len(r.split()) == 2 for r in rows)

    def test_manifest_needs_line_numbers(self, tmp_path):
        with pytest.raises(ConfigError, match="no source line numbers"):
            write_partition_manifest(gen_example2(2, 2, np.ones(2), 0.0, 5, 0),
                                     tmp_path / "manifest.txt")


class TestSignSplitGenerator:
    def test_one_dim_signs(self):
        ds = gen_example2(2, 1, np.array([1.0]), noise=0.0, rounds=50, seed=0)
        xg, _, y = ds.pregenerated[0]
        assert y == pytest.approx(xg[:, 0])
        xg, _, y = ds.pregenerated[1]
        assert y == pytest.approx(-xg[:, 0])

    def test_duplicated_feature_blocks(self):
        ds = gen_example2(2, 3, np.zeros(3), noise=0.0, rounds=5, seed=1)
        xg, xl, _ = ds.pregenerated[0]
        assert np.array_equal(xg, xl)

    def test_realizable_by_true_pair(self, rng):
        v = np.array([0.6, -0.8])
        ug = np.array([0.3, 0.1])
        ds = gen_example2(4, 2, v, noise=0.0, rounds=30, seed=2, u_global=ug)
        for i, stream in enumerate(ds.pregenerated):
            u_i = v if i < 2 else -v
            xg, _, y = stream
            assert y == pytest.approx(xg @ (ug + u_i), rel=1e-12)

    def test_pooled_global_loss_floor_matches_moment(self):
        # best single global model on the pooled +-v mixture keeps E[(v.x)^2] = |v|^2
        v = np.array([0.6, 0.8])
        ds = gen_example2(10, 2, v, noise=0.0, rounds=2000, seed=3)
        xs = np.concatenate([xg for xg, _, _ in ds.pregenerated])
        ys = np.concatenate([y for _, _, y in ds.pregenerated])
        w, *_ = np.linalg.lstsq(xs, ys, rcond=None)
        mc = float(np.mean((ys - xs @ w) ** 2))
        assert mc == pytest.approx(1.0, abs=0.08)  # |v|^2 = 1

    def test_odd_client_count_rejected(self):
        with pytest.raises(ConfigError):
            gen_example2(3, 2, np.zeros(2), 0.0, 10, 0)


class TestComplementaryViewsGenerator:
    def test_optimal_pair_zero_loss_on_every_sample(self):
        ds = gen_appendixc(200, 0)
        w = np.array([0.0, 1.0])
        xg, xl, y = ds.pregenerated[0]
        assert xg @ w + xl @ w == pytest.approx(np.ones(200), rel=1e-12)
        assert np.all(y == 1.0)

    def test_first_view_moments(self):
        ds = gen_appendixc(40_000, 1)
        x0 = ds.pregenerated[0][0][:, 0]
        se_mean = np.sqrt(1.25 / len(x0))
        assert abs(x0.mean()) <= 3 * se_mean
        var = x0.var()
        se_var = 1.25 * np.sqrt(2.0 / len(x0))
        assert abs(var - 1.25) <= 3 * se_var

    def test_seeded_reproducibility(self):
        a = gen_appendixc(50, 7).pregenerated[0]
        b = gen_appendixc(50, 7).pregenerated[0]
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_test_set_is_an_empty_block(self):
        xg, xl, y = gen_appendixc(10, 0).test_sets()[0]
        assert (xg.shape, xl.shape, y.shape) == ((0, 2), (0, 2), (0,))

    def test_horizon_overflow_rejected(self):
        ds = gen_appendixc(10, 0)
        with pytest.raises(ConfigError):
            ds.stream_block(0, 11, 0)
