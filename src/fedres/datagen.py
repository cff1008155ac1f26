"""Data ingestion and synthesis.

Three sources feed the learners:

* LIBSVM-format multiclass corpora, partitioned into per-client binary
  tasks: a random subset of classes is merged into one positive class,
  each client distinguishes it from a single randomly assigned negative
  class, sample assignments are disjoint across clients and exactly
  class-balanced, and the feature coordinates are split once into a
  global and a local half.
* A two-block synthetic family where labels are linear in shared features
  with a per-client sign-flipped component, so no single global model can
  serve both halves of the population.
* A single-client stream of two noisy complementary views of shared
  latent variables with constant label, whose unique zero-loss model pair
  requires the global and local models to move in a coordinated way.

All randomness comes from named substreams of the caller's seed. Data is
kept as row blocks: every train pool, test set and pre-generated stream is
an (x_global (n, dg), x_local (n, dl), y (n,)) triple, and learners draw
their streams from them through stream_block.
"""

from __future__ import annotations

import gzip
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .rng import substream

MERGE_FRACTION = 0.3
DEFAULT_HOLDOUT = 0.25

# rows as x_global (n, dg), x_local (n, dl), y (n,)
Block = tuple[np.ndarray, np.ndarray, np.ndarray]


# ---------------------------------------------------------------------------
# LIBSVM corpora


@dataclass
class MulticlassCorpus:
    """Dense multiclass dataset with source line numbers preserved."""

    labels: np.ndarray  # (n,) int
    features: np.ndarray  # (n, d) float
    line_numbers: np.ndarray  # (n,) int, 1-based position in the source text

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def d(self) -> int:
        return self.features.shape[1]

    @property
    def classes(self) -> list[int]:
        """The distinct labels in ascending order (np.unique's first call
        imports numpy.ma; a sort and an adjacent-difference mask do not)."""
        labels = np.sort(self.labels)
        first = np.ones(len(labels), dtype=bool)
        first[1:] = labels[1:] != labels[:-1]
        return labels[first].tolist()

    @property
    def n_classes(self) -> int:
        return len(self.classes)


def parse_libsvm(text: str) -> MulticlassCorpus:
    """Parse 'label index:value ...' lines; indices are 1-based and sparse.

    Vectors are densified to the maximum index seen anywhere in the
    corpus. Malformed input is reported with its line number: non-numeric
    labels, indices below 1, duplicate indices within a line, tokens
    that are not index:value pairs, and values that are not finite (nan,
    inf, or too large for a float).
    """
    labels: list[int] = []
    lines: list[int] = []
    # every entry as flat (row, column, value) lists, scattered in one assignment
    rows: list[int] = []
    columns: list[int] = []
    values: list[float] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        tokens = line.split()
        try:
            label = int(tokens[0])
        except ValueError:
            raise ConfigError(f"line {lineno}: non-numeric label {tokens[0]!r}")
        row, seen = len(labels), set()
        for tok in tokens[1:]:
            head, sep, tail = tok.partition(":")
            if not sep:
                raise ConfigError(f"line {lineno}: malformed token {tok!r}")
            try:
                index = int(head)
                value = float(tail)
            except ValueError:
                raise ConfigError(f"line {lineno}: malformed token {tok!r}")
            if index <= 0:
                raise ConfigError(f"line {lineno}: index {index} must be >= 1")
            if index in seen:
                raise ConfigError(f"line {lineno}: duplicate index {index}")
            seen.add(index)
            rows.append(row)
            columns.append(index - 1)
            values.append(value)
        labels.append(label)
        lines.append(lineno)
    features = np.zeros((len(labels), max(columns, default=-1) + 1))
    features[np.array(rows, dtype=int), np.array(columns, dtype=int)] = values
    finite = np.isfinite(features).all(axis=1)
    if not finite.all():
        raise ConfigError(f"line {lines[int(np.argmin(finite))]}: non-finite feature value")
    return MulticlassCorpus(
        labels=np.array(labels, dtype=int),
        features=features,
        line_numbers=np.array(lines, dtype=int),
    )


def load_libsvm(path: str | Path) -> MulticlassCorpus:
    path = Path(path)
    if path.suffix == ".gz":
        with gzip.open(path, "rt", encoding="utf-8") as fh:
            return parse_libsvm(fh.read())
    return parse_libsvm(path.read_text(encoding="utf-8"))


def serialize_libsvm(corpus: MulticlassCorpus) -> str:
    """Inverse of parse_libsvm up to blank lines: re-parsing is identical."""
    out = []
    pad = corpus.d and not corpus.features[:, -1].any()
    for i in range(corpus.n):
        row = corpus.features[i]
        toks = [str(int(corpus.labels[i]))]
        toks += [f"{j + 1}:{float(row[j])!r}" for j in np.nonzero(row)[0]]
        if i == 0 and pad:
            toks.append(f"{corpus.d}:0.0")  # keep the dense width round-trippable
        out.append(" ".join(toks))
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Federated datasets


@dataclass
class ClientData:
    train: Block
    test: Block
    task: tuple
    train_lines: list[int] = field(default_factory=list)
    test_lines: list[int] = field(default_factory=list)


@dataclass
class FederatedDataset:
    """Per-client streams of (x_global, x_local, y) rows; the streams carry
    the global and local block widths. A LIBSVM partition also records which
    corpus coordinates went to each block (global_index, local_index).

    Pool-backed datasets (LIBSVM partitions) replay their train pool in
    reshuffled epochs; pre-generated datasets (synthetic) return their
    stored streams and reject horizons beyond what was generated.
    """

    clients: list[ClientData]
    global_index: np.ndarray | None = None
    local_index: np.ndarray | None = None
    pregenerated: list[Block] | None = None

    @property
    def n_clients(self) -> int:
        return len(self.clients)

    def stream_block(self, client_id: int, rounds: int, seed: int) -> Block:
        """The first `rounds` rows of a client's stream. Only a pool-backed
        stream draws: reshuffled epochs of its train pool, from substream
        "stream-<client_id>" of the seed."""
        if self.pregenerated is not None:
            stream = self.pregenerated[client_id]
            if rounds > len(stream[2]):
                raise ConfigError(
                    f"client {client_id} has {len(stream[2])} pre-generated rounds, need {rounds}"
                )
            return tuple(a[:rounds] for a in stream)
        pool = self.clients[client_id].train
        n = len(pool[2])
        if not n:
            raise ConfigError(f"client {client_id} has an empty train pool")
        rng = substream(seed, f"stream-{client_id}")
        picks = np.concatenate([rng.permutation(n) for _ in range(-(-rounds // n))])[:rounds]
        return tuple(a[picks] for a in pool)

    def test_sets(self) -> list[Block]:
        return [c.test for c in self.clients]


def partition_federated(
    corpus: MulticlassCorpus,
    clients: int,
    n0: int,
    seed: int,
    holdout: float = DEFAULT_HOLDOUT,
) -> FederatedDataset:
    """Carve per-client binary tasks out of a multiclass corpus.

    A random subset of floor(0.3 K) classes is merged into the shared
    positive class (+1); each client's negative class (-1) is the class of
    the bucket it draws. Per client, the positive allocation is an equal
    disjoint share of the merged-class pool; a holdout fraction of each
    side is split off for testing before the train count is capped at n0,
    so every client trains on exactly N positives and N negatives with
    N = min(n0, share - holdout part).
    """
    if clients < 1:
        raise ConfigError(f"need at least one client, got {clients}")
    if n0 < 1:
        raise ConfigError(f"n0 must be >= 1, got {n0}")
    if not 0 <= holdout < 1:
        raise ConfigError(f"holdout must be in [0, 1), got {holdout}")
    k = corpus.n_classes
    if k < 6:
        raise ConfigError(f"corpus has {k} classes; partitioning needs at least 6")
    rng = substream(seed, "partition")

    classes = np.array(corpus.classes)
    n_merge = int(np.floor(MERGE_FRACTION * k))
    merged = set(int(c) for c in rng.choice(classes, size=n_merge, replace=False))
    rest = [int(c) for c in classes if c not in merged]
    if not rest:
        raise ConfigError("no classes left outside the merged positive class")

    pos_pool = np.flatnonzero(np.isin(corpus.labels, list(merged)))
    pos_pool = pos_pool[rng.permutation(len(pos_pool))]
    share = len(pos_pool) // clients
    if share < 1:
        raise ConfigError(
            f"{len(pos_pool)} merged-class samples cannot give {clients} clients one each"
        )
    n_test = int(np.floor(holdout * share))
    n_train = min(n0, share - n_test)
    if n_train < 1:
        raise ConfigError(f"per-client share {share} leaves no train samples after holdout")

    # Buckets: same-size single-class chunks; a client's negative side is one bucket.
    bucket_size = n_train + n_test
    buckets: list[tuple[int, np.ndarray]] = []
    for c in rest:
        idx = np.flatnonzero(corpus.labels == c)
        idx = idx[rng.permutation(len(idx))]
        for start in range(0, len(idx) - bucket_size + 1, bucket_size):
            buckets.append((c, idx[start : start + bucket_size]))
    if len(buckets) < clients:
        raise ConfigError(
            f"only {len(buckets)} buckets of size {bucket_size} for {clients} clients"
        )
    bucket_order = rng.permutation(len(buckets))

    d = corpus.d
    perm = rng.permutation(d)
    d_g = (d + 1) // 2  # odd d: the global block gets the extra coordinate
    global_index = np.sort(perm[:d_g])
    local_index = np.sort(perm[d_g:])

    def rows(pos: np.ndarray, neg: np.ndarray) -> Block:
        x = corpus.features[np.concatenate([pos, neg])]
        y = np.concatenate([np.ones(len(pos)), -np.ones(len(neg))])
        return x[:, global_index], x[:, local_index], y

    client_data = []
    for i in range(clients):
        block = pos_pool[i * share : (i + 1) * share]
        train_pos = block[:n_train]
        test_pos = block[n_train : n_train + n_test]
        neg_class, bucket = buckets[bucket_order[i]]
        train_neg = bucket[:n_train]
        test_neg = bucket[n_train : n_train + n_test]
        train = rows(train_pos, train_neg)
        test = rows(test_pos, test_neg)
        lines = corpus.line_numbers
        client_data.append(
            ClientData(
                train=train,
                test=test,
                task=(tuple(sorted(merged)), neg_class),
                train_lines=[int(lines[j]) for j in np.concatenate([train_pos, train_neg])],
                test_lines=[int(lines[j]) for j in np.concatenate([test_pos, test_neg])],
            )
        )
    return FederatedDataset(clients=client_data, global_index=global_index,
                            local_index=local_index)


def write_partition_manifest(dataset: FederatedDataset, path: str | Path) -> None:
    """Line-oriented audit record: one 'client_id line_number' per sample."""
    rows = []
    for i, client in enumerate(dataset.clients):
        if not client.train_lines and len(client.train[2]):
            raise ConfigError("dataset has no source line numbers; nothing to audit")
        for line in client.train_lines + client.test_lines:
            rows.append(f"{i} {line}")
    Path(path).write_text("\n".join(rows) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Synthetic generators


def gen_example2(
    clients: int,
    dim: int,
    v: np.ndarray,
    noise: float,
    rounds: int,
    seed: int,
    *,
    u_global: np.ndarray | None = None,
    test_rounds: int = 200,
) -> FederatedDataset:
    """Sign-split population: y = (u_global + u_i) . x (+ noise), u_i = +-v.

    The first half of the clients uses +v, the second half -v, so the best
    single global model is u_global alone and every client retains an
    irreducible (v . x)^2 loss without a local model. Covariates are
    i.i.d. standard normal and the global and local feature blocks are the
    same coordinates duplicated.
    """
    if clients % 2 != 0:
        raise ConfigError(f"clients must be even, got {clients}")
    v = np.asarray(v, dtype=float)
    if v.shape != (dim,):
        raise ConfigError(f"v must have shape ({dim},), got {v.shape}")
    ug = np.zeros(dim) if u_global is None else np.asarray(u_global, dtype=float)
    rng = substream(seed, "example2")
    total = rounds + test_rounds
    xs = rng.standard_normal((clients, total, dim))
    eps = rng.standard_normal((clients, total)) * noise if noise > 0 else np.zeros((clients, total))

    first_half = np.arange(clients) < clients // 2
    w = ug + np.where(first_half[:, None], v, -v)  # (P, dim): ug + u_i
    ys = (xs @ w[:, :, None])[..., 0]
    ys += eps

    streams: list[Block] = []
    client_data: list[ClientData] = []
    for i in range(clients):
        train = xs[i, :rounds], xs[i, :rounds], ys[i, :rounds]
        test = xs[i, rounds:], xs[i, rounds:], ys[i, rounds:]
        streams.append(train)
        client_data.append(
            ClientData(train=train, test=test, task=("sign-split", i < clients // 2))
        )
    return FederatedDataset(clients=client_data, pregenerated=streams)


def gen_appendixc(rounds: int, seed: int) -> FederatedDataset:
    """Single-client stream of complementary noisy views with label 1.

    With latents a, b ~ N(0,1) and eps ~ N(0, 0.25), the global view is
    [a + eps, b] and the local view [1 - a, 1 - b]; the unique zero-loss
    pair is global [0, 1] with local [0, 1], reachable only if both models
    move together. Feeds the three-way learner comparison.
    """
    if rounds < 1:
        raise ConfigError(f"rounds must be >= 1, got {rounds}")
    rng = substream(seed, "appendixc")
    a = rng.standard_normal(rounds)
    b = rng.standard_normal(rounds)
    eps = rng.normal(0.0, 0.5, rounds)
    samples = np.stack([a + eps, b], axis=1), np.stack([1.0 - a, 1.0 - b], axis=1), np.ones(rounds)
    empty = np.zeros((0, 2)), np.zeros((0, 2)), np.zeros(0)
    clients = [ClientData(train=samples, test=empty, task=("complementary-views",))]
    return FederatedDataset(clients=clients, pregenerated=[samples])
