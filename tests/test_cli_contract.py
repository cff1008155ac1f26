"""The CLI's contract as a property: no input escapes as a traceback.

cli.main(argv) runs in-process on derandomized Hypothesis draws of a
subcommand (run, sweep-clients, sweep-delay, bandit) and its flags, each
from edge values: negative numbers, zero, NaN, inf, floats and integers far
too large for a run (which the config checks must refuse before allocating
anything), delays past the horizon, and LIBSVM paths that are missing,
empty, a directory, malformed, or tiny corpora with duplicate or all-zero
columns, generated here. Every draw must end with an exit code of 0
(success), 1 (config error), 2 (I/O error) or 3 (invariant breach); an
exit 0 must write the CSV header, one row per rollout (and sweep value, and
bandit policy), and finite values, but for test accuracy, which is NaN
where no client has a test row (always for the bandit).
"""

import contextlib
import io
import math
import re

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
# for at most two flags, so that most draws reach the learners
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
SWEEP_VALUES = {"sweep-clients": ([1, 2], BAD_INTS),
                "sweep-delay": ([0, 2, 5], [-1, 40, 10**6, HUGE_INT, 2**63])}
DATA = (["example2", "appendixc", "plain", "zero-columns", "duplicate"],
        ["unknown", "missing", "directory", "empty", "malformed"])
# the five algorithms whose solves (their own or the regret comparator's) meet a
# duplicate column's singular Gram block
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
    """--data values by name, the generated LIBSVM corpora among them."""
    root = tmp_path_factory.mktemp("corpora")
    rng = np.random.default_rng(0)
    texts = {
        # two features at scale 1e4, each stored four times: every block of
        # four or more columns holds an equal pair, and its Gram entries are
        # so large that the base ridge is lost in rounding
        "duplicate": _libsvm(rng, 8, 30, lambda r: np.repeat(r.normal(0, 1e4, 2), 4)),
        "zero-columns": _libsvm(rng, 8, 30, lambda r: r.normal(0, 1, 4) * [1, 0, 1, 0]),
        "plain": _libsvm(rng, 8, 30, lambda r: r.normal(0, 1, 4)),
        "empty": "",
        "malformed": "1 1:0.5\n2 x:y\n",
    }
    data = {"example2": "example2", "appendixc": "appendixc", "unknown": "mnist",
            "missing": f"libsvm:{root / 'absent.txt'}", "directory": f"libsvm:{root}"}
    for name, text in texts.items():
        path = root / f"{name}.txt"
        path.write_text(text)
        data[name] = f"libsvm:{path}"
    return data


def main(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@st.composite
def invocations(draw):
    """(argv without --data, data name, rows expected on success)."""
    command = draw(st.sampled_from(["run", "sweep-clients", "sweep-delay", "bandit"]))
    bandit = command == "bandit"
    flags = [f for f in FLAGS if bandit or f not in ("--period", "--actions")]
    edges = draw(st.sets(st.sampled_from([*flags, "--data", "--values"]), max_size=2))

    def value(flag, choices):
        return draw(st.sampled_from(choices[flag in edges]))

    values = {flag: value(flag, FLAGS[flag]) for flag in flags}
    argv = [command, "--output", "-", *(f"{flag}={v}" for flag, v in values.items())]
    if not bandit:
        argv.append(f"--algo={draw(st.sampled_from(ALGOS))}")
    rows = (2 if bandit else 1) * values["--rollouts"]
    if command.startswith("sweep"):
        axis = [value("--values", SWEEP_VALUES[command]) for _ in range(draw(st.integers(1, 3)))]
        argv += ["--values", *map(str, axis)]
        rows *= len(axis)
    return argv, value("--data", DATA), rows


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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # NumPy's, on the way to a blow-up
@given(invocations())
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
def test_every_input_ends_with_a_documented_exit_code(corpora, invocation):
    argv, data, rows = invocation
    code, stdout, stderr = main([*argv, f"--data={corpora[data]}"])
    assert code in (0, 1, 2, 3), stderr
    if code == 0:
        check_csv(stdout, rows)
    else:
        last = stderr.splitlines()[-1]  # after any RuntimeWarning NumPy printed on the way
        assert last.startswith(("config error: ", "io error: ", "invariant breach: ")), stderr


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("clients", [1, 2])
@pytest.mark.parametrize("algo", SOLVING_ALGOS)
def test_duplicate_columns_end_as_a_named_invariant_breach(corpora, algo, clients):
    """A singular Gram block names its solve, with exit 3: the learner's
    (fedres-erm, fictitious: which block, and the round) or the regret
    comparator's (the rest, which solve nothing before it)."""
    code, stdout, stderr = main(["run", "--data", corpora["duplicate"], "--algo", algo,
                                 "--clients", str(clients), "--rounds", "20", "--n0", "8",
                                 "--output", "-"])
    assert code == 3, stderr
    solve = (r"(the global|a local) solve in round \d+" if algo in ("fedres-erm", "fictitious")
             else "a solve of the regret comparator's fit")
    assert re.fullmatch(f"invariant breach: {solve} has a singular Gram block",
                        stderr.splitlines()[-1]), stderr
