"""One client at zero delay with batch size 1, the three-way protocol's
shape: runs reproduce tests/data/single_client.json bit for bit (see
record_single_client.py), the round clock counts every round, and
diverging runs raise the InvariantError messages recorded from the
round-at-a-time engine.
"""

import json

import numpy as np
import pytest

from fedres import native
from fedres.core import HyperParams
from fedres.datagen import gen_appendixc
from fedres.engine import SgdSystem, run_fedres_sgd
from fedres.erm import ErmSystem
from fedres.errors import InvariantError

from conftest import kernel_note
from record_single_client import CASES, PATH, record, run
from test_sgd import dataset_from_streams

FIXTURE = json.loads(PATH.read_text(encoding="utf-8"))
RECORDED_KERNEL = "SkylakeX"  # the OpenBLAS core the fixture's bits were recorded under


@pytest.mark.parametrize("name", CASES)
def test_run_reproduces_recorded_bits(name):
    # json writes repr floats, so equal text is equal bits, -0.0 included
    want = json.dumps(FIXTURE["runs"][name])
    assert json.dumps(record(run(FIXTURE["data"], name))) == want, kernel_note(RECORDED_KERNEL)


@pytest.mark.parametrize("system, variant", [(SgdSystem, "aligned"), (ErmSystem, "erm"),
                                             (ErmSystem, "fictitious")])
def test_round_clock_counts_every_round(system, variant):
    rounds, init = 300, np.array([1.0, 0.0])
    built = system.build(gen_appendixc(rounds, 0), 0, HyperParams(), rounds, 0, variant=variant,
                         init_global=init, init_locals=[init])
    res = built.run()
    channel = built.channel
    assert channel._last_published == rounds
    assert channel.fetch_counts == res.fetch_counts == [rounds]
    assert channel.pending_payloads == 0


@pytest.mark.parametrize("system, clients, delays, batch_size, variant, single", [
    (SgdSystem, 1, 0, 1, "aligned", True),
    (SgdSystem, 1, 0, 1, "misaligned", False),
    (SgdSystem, 1, 0, 1, "asymmetric", False),
    (SgdSystem, 1, (0, 1), 1, "aligned", False),
    (SgdSystem, 1, (1, 0), 1, "aligned", False),
    (SgdSystem, 1, 0, 2, "aligned", False),
    (SgdSystem, 2, 0, 1, "aligned", False),
    (ErmSystem, 1, 0, 1, "erm", True),
    (ErmSystem, 1, 0, 1, "fictitious", True),
    (ErmSystem, 1, (1, 0), 1, "erm", False),
    (ErmSystem, 2, 0, 1, "fictitious", False),
])
def test_the_input_alone_selects_the_single_client_loop(system, clients, delays, batch_size,
                                                        variant, single):
    rng = np.random.default_rng(1)
    streams = [(rng.normal(0, 1, (8, 2)), rng.normal(0, 1, (8, 2)), rng.normal(0, 1, 8))
               for _ in range(clients)]
    built = system.build(dataset_from_streams(streams), delays, HyperParams(),
                         8, 0, batch_size, variant=variant)
    assert built._single == single


@pytest.mark.parametrize("loops", ["on", "off"])
@pytest.mark.parametrize("system, variant", [(SgdSystem, "aligned"), (ErmSystem, "erm"),
                                             (ErmSystem, "fictitious")])
def test_signed_zeros_at_one_feature_keep_the_block_path_bits(system, variant, loops,
                                                              monkeypatch):
    """At d = 1 ndarray.dot is the bare product, where the block path's
    np.vecdot adds it to 0.0. Zero models on negative features price -0.0
    products; with zero labels the models stay zero, and run()'s loop must
    still give the predictions and models of a round-at-a-time step(). With
    the C loops off, that compares _run_single with the block path; with
    them on (where they load), the C round's run() with its step()."""
    if loops == "off":
        monkeypatch.setattr(native, "LOOPS", None)
    x = np.array([[-1.0], [-2.0], [0.5], [-0.0], [-3.0], [1.0]])
    ds = dataset_from_streams([(x, x[::-1].copy(), np.zeros(6))])
    systems = [system.build(ds, 0, HyperParams(), 6, 0, variant=variant) for _ in range(2)]
    assert (systems[0]._rounds is None) == (native.LOOPS is None)
    res = systems[0].run()
    for _ in range(6):
        systems[1].step()
    assert res.prediction.tobytes() == systems[1].prediction.tobytes()
    assert res.final_global.tobytes() == systems[1].wg.tobytes()
    assert np.array(res.final_locals).tobytes() == systems[1].wl.tobytes()


# (global scale, local scale, global step, local step) of a random stream
# from seed 0, and the message the round-at-a-time engine raised on it
DIVERGING = [
    ((1.0, 1.0, 1e-3, 1e12), "the local model of client 0 has a non-finite norm after round 13"),
    ((1.0, 1.0, 1e12, 1e-3), "the global model has a non-finite norm after round 13"),
    # round 8's global model fails, and round 7's loss came first
    ((1e40, 1.0, 1e-60, 1e-60), "non-finite loss at round 7, client 0"),
    # round 5's local model fails, and round 4's loss came first
    ((1e20, 1e20, 1e-40, 1e-3), "non-finite loss at round 4, client 0"),
    # round 8's global model fails after pricing round 8's loss
    ((1e20, 1.0, 1e-20, 1e-20), "non-finite loss at round 8, client 0"),
]


@pytest.mark.parametrize("scales, message", DIVERGING)
def test_diverging_run_raises_the_recorded_message(scales, message):
    scale_g, scale_l, eta_global, eta_local = scales
    rng = np.random.default_rng(0)
    stream = (rng.normal(0, 1, (200, 2)) * scale_g, rng.normal(0, 1, (200, 2)) * scale_l,
              rng.normal(0, 1, 200))
    hyper = HyperParams(radius=1e300, eta_global=eta_global, eta_local=eta_local)
    with pytest.raises(InvariantError, match=f"^{message}$"):
        run_fedres_sgd(dataset_from_streams([stream]), 0, hyper, 200, 0,
                       init_global=np.ones(2), init_locals=[np.ones(2)])
