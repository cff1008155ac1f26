"""The names perfbench reads from the package still exist.

perfbench/tracer.py rebinds module globals and methods by name and skips a
name it cannot find without a word, so a rename would read as zero work in
a traced run instead of failing. These tests pin every name it reads, the
positional signatures its *args wrappers pass through, and the record count
it takes from len(result.traces).
"""

import dataclasses
import inspect

import numpy as np
import pytest

from fedres import bandit, engine, erm, harness, solver
from fedres.channel import DelayConfig, DelayedChannel
from fedres.core import HyperParams

HARNESS_NAMES = ("gen_example2", "gen_appendixc", "partition_federated", "load_libsvm",
                 "compute_regret", "evaluate_accuracy", "alternating_joint_ls", "run_fedres_sgd",
                 "run_fedres_erm", "run_fictitious_play", "_appendixc_task", "CSV_HEADER")


@pytest.mark.parametrize("owner, name", [
    *((harness, name) for name in HARNESS_NAMES),
    (engine, "build_streams"), (engine, "project_ball"),
    (erm, "solve_gram"), (solver, "solve_gram"),
    (bandit, "run_epsilon_greedy"), (bandit, "run_uniform_policy"), (bandit, "cb_regret"),
])
def test_traced_module_names_exist(owner, name):
    assert getattr(owner, name, None) is not None, f"{owner.__name__}.{name}"


def test_bandit_result_counts_exploration_rounds():
    assert "exploration_rounds" in {f.name for f in dataclasses.fields(bandit.BanditResult)}


def test_channel_signatures_and_attributes():
    def params(fn):
        return list(inspect.signature(fn).parameters)[1:]

    assert params(DelayedChannel.__init__) == ["delays", "initial_global", "rounds"]
    assert params(DelayedChannel.publish_global) == ["rounds"]
    delays = DelayConfig((1, 2), (0, 1))
    chan = DelayedChannel(delays, np.zeros(2), 4)
    chan.publish_global(1)
    assert chan._last_published == 1
    assert chan.delays is delays
    assert isinstance(chan.pending_payloads, int)


@pytest.mark.parametrize("batch_size", [1, 2])
def test_traces_count_every_record(batch_size):
    ds = harness.gen_appendixc(8, 0)
    result = harness.run_fedres_sgd(ds, 0, HyperParams(), 8, 0, batch_size=batch_size)
    assert len(result.traces) == result.loss.size == 8 // batch_size
