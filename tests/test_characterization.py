"""The delayed-SGD engine reproduces a fixture recorded from the per-sample
object engine it replaced, bit for bit.

The grid is every update variant at batch sizes 1 and 3 with heterogeneous
per-client delays, a zero-round-trip client next to delayed ones, per-client
step sizes and an active ball; see record_sgd_characterization.py.
"""

import json

import numpy as np
import pytest

from record_sgd_characterization import BATCHES, PATH, VARIANTS, run

FIXTURE = json.loads(PATH.read_text(encoding="utf-8"))


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("batch", BATCHES)
def test_engine_reproduces_recorded_run(variant, batch):
    want = FIXTURE["runs"][f"{variant}-b{batch}"]
    res = run(FIXTURE["data"], variant, batch)
    assert res.loss.tolist() == want["loss"]
    assert res.prediction.tolist() == want["prediction"]
    assert res.final_global.tolist() == want["final_global"]
    assert [w.tolist() for w in res.final_locals] == want["final_locals"]
    assert list(res.fetch_counts) == want["fetch_counts"]
    assert [list(o) for o in res.system.alignment_offsets()] == want["alignment_offsets"]


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
