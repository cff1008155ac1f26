"""The CLI's contract as a property: no input escapes as a traceback.

cli.main(argv) runs in-process on derandomized Hypothesis draws of a
subcommand (run, sweep-clients, sweep-delay, bandit, appendixc, partition)
and its flags, each from edge values: negative numbers, zero, NaN, inf,
floats and integers far too large for a run (which the config checks must
refuse before allocating anything), delays past the horizon, output paths
that are a directory or lie under a file, and LIBSVM paths that are
missing, empty, a directory, malformed or not UTF-8, gzip archives that
are valid, truncated, corrupt, not gzip or not UTF-8 inside, or tiny
corpora with duplicate or all-zero columns, generated here. Every draw
must end with an exit code of 0 (success), 1 (config error), 2 (I/O error)
or 3 (invariant breach); an exit 0 must write the CSV header, one row per
rollout (and sweep value, bandit policy and appendixc learner), and finite
values, but for test accuracy, which is NaN where no client has a test row
(always for the bandit), or for partition a manifest line per sample.
Outside the draws, every subcommand that writes a file meets a
$FEDRES_OUTPUT_DIR that is a file or lies under one, and must exit 2.
"""

import contextlib
import gzip
import io
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedres import cli
from fedres.harness import ALGOS, CSV_HEADER

HUGE_INT = 10**12  # refused by the size check wherever it sizes an array
BAD_FLOATS = ["nan", "inf", "-inf", "-1", "0", "1e-300", "1e300"]
BAD_INTS = [-1, 0, HUGE_INT]
# every flag's ordinary values, then its edge values; a draw takes edge values
# for at most two flags, and for --data one time in two, so that many draws
# reach the learners
FLAGS = {
    "--rounds": ([2, 6, 12, 40], [-1, 0, 1, 5, HUGE_INT]),
    "--clients": ([1, 2], BAD_INTS),
    "--alpha": ([0, 1, 3], [-1, 40, 10**6, HUGE_INT, 2**63]),  # 40 and up: past the horizon
    "--beta": ([0, 1, 3], [-1, 40, 10**6, HUGE_INT, 2**63]),
    "--batch-size": ([1], [-1, 0, 2, 3]),
    "--eta-global": (["0.05", "0.3"], BAD_FLOATS),
    "--eta-local": (["0.05", "0.3"], BAD_FLOATS),
    "--radius": (["1", "10"], BAD_FLOATS),
    "--rollouts": ([1, 2], BAD_INTS),
    "--base-seed": ([0, 5], [-1, 2**64]),
    "--dim": ([1, 3], BAD_INTS),
    "--v-norm": (["1"], BAD_FLOATS),
    "--noise": (["0", "0.3"], BAD_FLOATS),
    "--n0": ([4, 8], [-1, 0, 30, HUGE_INT]),
    "--holdout": (["0", "0.25"], ["nan", "-0.1", "1", "inf"]),
    "--test-rounds": ([0, 5], [-1, HUGE_INT]),
    "--jobs": ([1, 2], [1, 2]),  # no more: each job is a process
    "--period": ([1, 3], [-1, 0, 10**6]),
    "--actions": ([2, 3], [-1, 0, 1, HUGE_INT]),
}
# appendixc's and partition's own flags
OWN_FLAGS = {
    "appendixc": {"--rounds": FLAGS["--rounds"], "--rollouts": FLAGS["--rollouts"],
                  "--eta": (["0.05", "1.0"], BAD_FLOATS), "--base-seed": FLAGS["--base-seed"],
                  "--jobs": FLAGS["--jobs"]},
    "partition": {"--clients": FLAGS["--clients"], "--n0": FLAGS["--n0"],
                  "--holdout": FLAGS["--holdout"], "--seed": ([0, 5], [-1, 2**64])},
}
SWEEP_VALUES = {"sweep-clients": ([1, 2], BAD_INTS),
                "sweep-delay": ([0, 2, 5], [-1, 40, 10**6, HUGE_INT, 2**63])}
# LIBSVM files, then the other --data values
FILES = (["plain", "zero-columns", "duplicate", "gz"],
         ["missing", "directory", "empty", "malformed", "not-utf8", "gz-truncated",
          "gz-corrupt", "gz-not-gzip", "gz-not-utf8"])
DATA = (["example2", "appendixc", *FILES[0]], ["unknown", *FILES[1]])
OUTPUTS = (["-"], ["directory", "under-a-file"])
# how each damaged corpus ends: not UTF-8 is malformed LIBSVM, a damaged archive an I/O error
DAMAGED = {"not-utf8": 1, "gz-not-utf8": 1, "gz-truncated": 2, "gz-corrupt": 2,
           "gz-not-gzip": 2}
# the five algorithms whose solves (their own or the regret comparator's) meet a
# duplicate column's singular Gram block, which the solver answers at a doubled ridge
SOLVING_ALGOS = ["fedres-sgd", "fedres-erm", "fictitious", "central", "independent"]


def _libsvm(rng, classes: int, rows: int, columns) -> str:
    """rows records per class; columns(rng) gives one record's dense features."""
    lines = []
    for c in range(classes):
        for _ in range(rows):
            x = columns(rng)
            tokens = [f"{j + 1}:{float(v)!r}" for j, v in enumerate(x) if v]
            if not lines and not x[-1]:
                tokens.append(f"{len(x)}:0.0")  # keep the dense width
            lines.append(" ".join([str(c), *tokens]))
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def corpora(tmp_path_factory):
    """--data values by name, the generated LIBSVM files among them, and
    --output values by name ("manifest": partition's ordinary one)."""
    root = tmp_path_factory.mktemp("corpora")
    rng = np.random.default_rng(0)
    files = {
        # two features at scale 1e4, each stored four times: every block of
        # four or more columns holds an equal pair, and its Gram entries are
        # so large that the base ridge is lost in rounding
        "duplicate.txt": _libsvm(rng, 8, 30, lambda r: np.repeat(r.normal(0, 1e4, 2), 4)),
        "zero-columns.txt": _libsvm(rng, 8, 30, lambda r: r.normal(0, 1, 4) * [1, 0, 1, 0]),
    }
    plain = _libsvm(rng, 8, 30, lambda r: r.normal(0, 1, 4)).encode()
    archive = gzip.compress(plain, mtime=0)
    corrupt = bytearray(archive)
    corrupt[10] ^= 0xFF  # the first byte of the deflate stream: zlib refuses it
    files |= {
        "plain.txt": plain,
        "empty.txt": "",
        "malformed.txt": "1 1:0.5\n2 x:y\n",
        "not-utf8.txt": plain[:40] + b"\xff" + plain[40:],
        "gz.gz": archive,
        "gz-truncated.gz": archive[: len(archive) // 2],
        "gz-corrupt.gz": bytes(corrupt),
        "gz-not-gzip.gz": plain,
        "gz-not-utf8.gz": gzip.compress(plain[:40] + b"\xff" + plain[40:], mtime=0),
    }
    data = {"example2": "example2", "appendixc": "appendixc", "unknown": "mnist",
            "missing": f"libsvm:{root / 'absent.txt'}", "directory": f"libsvm:{root}"}
    for name, content in files.items():
        path = root / name
        path.write_bytes(content.encode() if isinstance(content, str) else content)
        data[path.stem] = f"libsvm:{path}"
    data["output:-"] = "-"
    data["output:manifest"] = str(root / "manifest.txt")
    data["output:directory"] = str(root)
    data["output:under-a-file"] = str(root / "plain.txt" / "out.csv")
    return data


def main(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@st.composite
def invocations(draw):
    """(argv, rows expected on success): argv holds (flag, name) pairs for
    --output, --data and partition's corpus (flag None), which concrete()
    resolves; rows is None for partition."""
    command = draw(st.sampled_from(["run", "sweep-clients", "sweep-delay", "bandit",
                                    "appendixc", "partition"]))
    bandit = command == "bandit"
    flags = OWN_FLAGS.get(command) or {f: FLAGS[f] for f in FLAGS
                                       if bandit or f not in ("--period", "--actions")}
    edges = draw(st.sets(st.sampled_from(["--output", "--values", *flags]), max_size=2))
    if draw(st.booleans()):  # a file or source that cannot be read: one draw in two
        edges.add("--data")

    def value(flag, choices):
        return draw(st.sampled_from(choices[flag in edges]))

    values = {flag: value(flag, choices) for flag, choices in flags.items()}
    output = value("--output", OUTPUTS)
    if command == "partition" and output == "-":
        output = "manifest"
    argv = [command, ("--output", f"output:{output}"),
            *(f"{flag}={v}" for flag, v in values.items())]
    if command == "partition":
        return [*argv, (None, value("--data", FILES))], None
    if command == "appendixc":
        return argv, 3 * values["--rollouts"]
    argv.append(("--data", value("--data", DATA)))
    if not bandit:
        argv.append(f"--algo={draw(st.sampled_from(ALGOS))}")
    rows = (2 if bandit else 1) * values["--rollouts"]
    if command.startswith("sweep"):
        axis = [value("--values", SWEEP_VALUES[command]) for _ in range(draw(st.integers(1, 3)))]
        argv += ["--values", *map(str, axis)]
        rows *= len(axis)
    return argv, rows


def check_csv(stdout: str, rows: int) -> None:
    header, *lines = stdout.splitlines()
    assert header == CSV_HEADER
    assert len(lines) == rows
    names = CSV_HEADER.split(",")
    for line in lines:
        cells = dict(zip(names, line.split(","), strict=True))
        for name in ("train_loss", "test_accuracy", "avg_regret"):
            value = float(cells[name])
            assert math.isfinite(value) or (name == "test_accuracy" and math.isnan(value)), line


def concrete(argv: list, corpora: dict) -> list[str]:
    """argv with each (flag, name) pair resolved through corpora: a
    positional corpus (flag None) is the file itself."""
    out = []
    for arg in argv:
        if isinstance(arg, tuple):
            flag, name = arg
            value = corpora[name]
            arg = value.removeprefix("libsvm:") if flag is None else f"{flag}={value}"
        out.append(arg)
    return out


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # NumPy's, on the way to a blow-up
def test_every_input_ends_with_a_documented_exit_code(corpora):
    """300 draws, which between them reach every subcommand, every
    LIBSVM file and every --output value."""
    manifest, seen = Path(corpora["output:manifest"]), set()

    @given(invocations())
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    def check(invocation):
        argv, rows = invocation
        seen.update([argv[0], *(name for arg in argv if isinstance(arg, tuple)
                                for name in arg[1:])])
        manifest.unlink(missing_ok=True)
        code, stdout, stderr = main(concrete(argv, corpora))
        assert code in (0, 1, 2, 3), stderr
        if code:
            last = stderr.splitlines()[-1]  # after any RuntimeWarning NumPy printed on the way
            assert last.startswith(("config error: ", "io error: ", "invariant breach: ")), stderr
        elif rows is None:
            assert stdout.startswith("wrote manifest for ")
            lines = manifest.read_text().splitlines()
            assert lines and all(re.fullmatch(r"\d+ \d+", line) for line in lines)
        else:
            check_csv(stdout, rows)

    check()
    files = {*FILES[0], *FILES[1]} - {"missing", "directory"}
    outputs = {f"output:{name}" for name in (*OUTPUTS[0], *OUTPUTS[1], "manifest")}
    assert {*OWN_FLAGS, "run", "bandit", *files, *outputs} <= seen, seen


@pytest.mark.parametrize("command", ["run", "partition"])
@pytest.mark.parametrize("corpus", sorted(DAMAGED))
def test_undecodable_and_damaged_corpora_end_with_their_exit_codes(corpora, corpus, command):
    """Not UTF-8, plain or inside gzip, is malformed LIBSVM (exit 1); a
    truncated, corrupt or non-gzip archive is an I/O error (exit 2). One
    line on stderr names the file; nothing escapes as a traceback."""
    path = corpora[corpus].removeprefix("libsvm:")
    argv = (["run", "--data", corpora[corpus], "--output", "-"] if command == "run"
            else ["partition", path, "--output", corpora["output:manifest"]])
    code, stdout, stderr = main(argv)
    prefix = {1: "config error: ", 2: "io error: "}[DAMAGED[corpus]]
    assert code == DAMAGED[corpus] and not stdout, stderr
    assert re.fullmatch(re.escape(f"{prefix}{path}: ") + r".+\n", stderr), stderr


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("clients", [1, 2])
@pytest.mark.parametrize("algo", SOLVING_ALGOS)
def test_duplicate_columns_end_as_a_named_invariant_breach(corpora, algo, clients):
    """Despite its name (kept from when a singular Gram block ended the run
    as an invariant breach), the run gets its row: a singular solve, the
    learner's or the regret comparator's, takes a doubled ridge. Exit 0,
    finite values, and nothing on stderr, not even a NumPy warning."""
    code, stdout, stderr = main(["run", "--data", corpora["duplicate"], "--algo", algo,
                                 "--clients", str(clients), "--rounds", "20", "--n0", "8",
                                 "--output", "-"])
    assert (code, stderr) == (0, "")
    check_csv(stdout, 1)


# every subcommand that writes a file, at small sizes; partition's corpus is resolved later
WRITERS = {
    "run": ["run", "--rounds", "4", "--rollouts", "1"],
    "sweep-clients": ["sweep-clients", "--values", "2", "--rounds", "4", "--rollouts", "1"],
    "sweep-delay": ["sweep-delay", "--values", "0", "--rounds", "4", "--rollouts", "1"],
    "bandit": ["bandit", "--rounds", "20", "--rollouts", "1"],
    "appendixc": ["appendixc", "--rounds", "4", "--rollouts", "1"],
    "partition": ["partition", "--clients", "2", "--n0", "4"],
}


@pytest.mark.parametrize("output", [None, "relative.csv"])
@pytest.mark.parametrize("where", ["a-file", "under-a-file"])
@pytest.mark.parametrize("command", WRITERS)
def test_an_output_directory_that_cannot_be_made_is_an_io_error(corpora, tmp_path, monkeypatch,
                                                                command, where, output):
    """$FEDRES_OUTPUT_DIR at a file, or at a path under one: a default or
    relative --output resolves under it, and the run ends with exit 2 and
    one line on stderr, not a traceback."""
    blocker = tmp_path / "file"
    blocker.write_text("")
    monkeypatch.setenv("FEDRES_OUTPUT_DIR", str(blocker if where == "a-file" else blocker / "dir"))
    argv = WRITERS[command] + (["--output", output] if output else [])
    if command == "partition":
        argv.append(corpora["plain"].removeprefix("libsvm:"))
    code, stdout, stderr = main(argv)
    assert (code, stdout) == (2, ""), stderr
    assert re.fullmatch(r"io error: .+\n", stderr), stderr
