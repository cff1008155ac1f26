"""The delayed-SGD engine, the exact learners and the bandit policies
reproduce a fixture recorded from the per-sample object code they
replaced, bit for bit.

The SGD grid is every update variant at batch sizes 1 and 3 with
heterogeneous per-client delays, a zero-round-trip client next to delayed
ones, per-client step sizes and an active ball; ERM and fictitious play run
on the same data with uniform delays and a ball that binds some solves on
both sides; the bandit runs cover both policies, noisy rewards, period 1
and periods that do not divide the horizon; the long exact-learner runs
span several prefix-sum blocks on both sides. Every SGD and exact run also
reproduces its recorded regret and the regret comparator's models, at its
own radius and at one where every comparator solve binds the ball; see
record_sgd_characterization.py.
"""

import json

import numpy as np
import pytest

from fedres.bandit import cb_regret
from fedres.harness import compute_regret
from fedres.solver import alternating_joint_ls

from conftest import kernel_note
from joint_ls_oracle import client_blocks
from record_sgd_characterization import (CASES, PATH, REGRET_CASES, alignment_offsets, bandit_env,
                                         case_data, run)

FIXTURE = json.loads(PATH.read_text(encoding="utf-8"))
RECORDED_KERNEL = "SkylakeX"  # the OpenBLAS core the fixture's bits were recorded under
KERNELS = kernel_note(RECORDED_KERNEL)


@pytest.mark.parametrize("batch, variant", CASES)
def test_engine_reproduces_recorded_run(variant, batch):
    want = FIXTURE["runs"][f"{variant}-b{batch}"]
    data = case_data(FIXTURE, variant)
    res = run(data, variant, batch)
    assert res.loss.tolist() == want["loss"], KERNELS
    assert res.prediction.tolist() == want["prediction"], KERNELS
    assert res.final_global.tolist() == want["final_global"], KERNELS
    assert [w.tolist() for w in res.final_locals] == want["final_locals"], KERNELS
    assert list(res.fetch_counts) == want["fetch_counts"]
    if "alignment_offsets" in want:  # SGD only
        assert alignment_offsets(data, variant, batch) == want["alignment_offsets"]
    if "action" in want:  # bandit only
        assert res.action.tolist() == want["action"], KERNELS
        assert cb_regret(res, bandit_env(variant)) == want["cb_regret"], KERNELS
        assert res.exploration_rounds == want["exploration_rounds"]


def test_records_match_recorded_columns():
    want = FIXTURE["runs"]["aligned-b3"]
    res = run(FIXTURE["data"], "aligned", 3)
    clients = res.clients
    assert len(res.traces) == res.rounds * clients
    for k, loss in enumerate(res.traces):  # record k is round n + 1, client i
        n, i = divmod(k, clients)
        assert loss == want["loss"][n][i], KERNELS
        assert res.prediction[n, i].tolist() == want["prediction"][n][i], KERNELS
    assert np.isfinite(res.loss).all()


@pytest.mark.parametrize("batch, variant", REGRET_CASES)
def test_regret_and_comparator_reproduce_recorded_values(variant, batch):
    data = case_data(FIXTURE, variant)
    res = run(data, variant, batch)
    for want in FIXTURE["regret"][f"{variant}-b{batch}"]:
        radius = want["radius"]
        assert compute_regret(res, radius=radius) == want["regret"], KERNELS
        wg, wls, objective = alternating_joint_ls(*client_blocks(res), radius)
        assert wg.tolist() == want["wg"], KERNELS
        assert [w.tolist() for w in wls] == want["wls"], KERNELS
        assert objective == want["objective"], KERNELS
