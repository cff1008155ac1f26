"""The delayed-SGD engine, the exact learners and the bandit policies
reproduce a fixture recorded from the per-sample object code they
replaced, bit for bit.

The SGD grid is every update variant at batch sizes 1 and 3 with
heterogeneous per-client delays, a zero-round-trip client next to delayed
ones, per-client step sizes and an active ball; ERM and fictitious play run
on the same data with uniform delays and a ball that binds some solves on
both sides; the bandit runs cover both policies, noisy rewards, period 1
and periods that do not divide the horizon; the long exact-learner runs
span several prefix-sum blocks on both sides; see
record_sgd_characterization.py.
"""

import json

import numpy as np
import pytest

from fedres.bandit import cb_regret

from record_sgd_characterization import CASES, PATH, bandit_env, case_data, run

FIXTURE = json.loads(PATH.read_text(encoding="utf-8"))


@pytest.mark.parametrize("batch, variant", CASES)
def test_engine_reproduces_recorded_run(variant, batch):
    want = FIXTURE["runs"][f"{variant}-b{batch}"]
    res = run(case_data(FIXTURE, variant), variant, batch)
    assert res.loss.tolist() == want["loss"]
    assert res.prediction.tolist() == want["prediction"]
    assert res.final_global.tolist() == want["final_global"]
    assert [w.tolist() for w in res.final_locals] == want["final_locals"]
    assert list(res.fetch_counts) == want["fetch_counts"]
    if "alignment_offsets" in want:  # SGD only
        assert [list(o) for o in res.system.alignment_offsets()] == want["alignment_offsets"]
    if "action" in want:  # bandit only
        assert res.action.tolist() == want["action"]
        assert cb_regret(res.traces, bandit_env(variant)) == want["cb_regret"]
        assert res.exploration_rounds == want["exploration_rounds"]


def test_trace_view_matches_recorded_columns():
    want = FIXTURE["runs"]["aligned-b3"]
    res = run(FIXTURE["data"], "aligned", 3)
    clients = res.clients
    for k, tr in enumerate(res.traces):
        n, i = divmod(k, clients)
        assert (tr.round, tr.client_id) == (n + 1, i)
        assert tr.loss == want["loss"][n][i]
        assert list(tr.prediction) == want["prediction"][n][i]
    assert np.isfinite(res.loss).all()
