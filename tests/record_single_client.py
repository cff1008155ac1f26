"""Record the single-client fixture used by test_single_client.py.

    PYTHONPATH=src python tests/record_single_client.py

Every case runs one client at zero delay with batch size 1: the
three-way protocol's shape (appendix C). SGD runs at steps 1.0 (both
balls bind every round) and 0.05 on 2,000 appendixc rounds, and on a
scripted stream with three global features (one column all zero), one
local feature, a binding radius, inits outside the ball and -0.0 init
entries, so that sign bits and the nudged projection are pinned. ERM and
fictitious play run on the appendixc rounds at the default radius and at
one where some solves bisect. It writes each run's predictions, final
models and fetch counts to tests/data/single_client.json; the scripted
stream is stored alongside, so the check needs no RNG for it. Floats are
written with repr, so the file round-trips bit for bit.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from fedres.core import HyperParams
from fedres.engine import run_fedres_sgd
from fedres.harness import ExperimentConfig, build_dataset, dispatch

from test_sgd import dataset_from_streams

PATH = Path(__file__).parent / "data" / "single_client.json"
APPENDIXC_ROUNDS = 2000
INIT = (1.0, 0.0)  # the protocol's init for both models
# name: (algo, step, radius) on the appendixc rounds of seed 0
APPENDIXC = {
    "sgd-step1.0": ("fedres-sgd", 1.0, 100.0),
    "sgd-step0.05": ("fedres-sgd", 0.05, 100.0),
    "erm": ("fedres-erm", 1.0, 100.0),
    "fictitious": ("fictitious", 1.0, 100.0),
    "erm-bisect": ("fedres-erm", 1.0, 0.6),
    "fictitious-bisect": ("fictitious", 1.0, 0.6),
}
SCRIPTED_ROUNDS, SCRIPTED_HYPER = 300, dict(radius=0.5, eta_global=0.3, eta_local=0.4)
# name: (init_global, init_local); both global inits leave column 1 at -0.0
SCRIPTED = {
    "sgd-signs": ((1.2, -0.0, -0.9), (-0.0,)),
    "sgd-local-outside": ((-0.0, -0.0, 0.0), (-2.0,)),
}
CASES = (*APPENDIXC, *SCRIPTED)


def make_scripted_data(seed: int = 2026) -> dict:
    """dg = 3 with column 1 all zero, dl = 1 with the first rows zero;
    rounded to 6 decimals."""
    rng = np.random.default_rng(seed)
    xg = rng.normal(0, 1, (SCRIPTED_ROUNDS, 3)).round(6)
    xg[:, 1] = 0.0
    xl = rng.normal(0, 1, (SCRIPTED_ROUNDS, 1)).round(6)
    xl[:5] = 0.0
    y = rng.normal(0, 1, SCRIPTED_ROUNDS).round(6)
    return {"x_global": xg.tolist(), "x_local": xl.tolist(), "y": y.tolist()}


def appendixc_config(name: str) -> ExperimentConfig:
    algo, step, radius = APPENDIXC[name]
    return ExperimentConfig(algo=algo, data="appendixc", clients=1, rounds=APPENDIXC_ROUNDS,
                            eta_global=step, eta_local=step, radius=radius)


def run(data: dict, name: str):
    if name in APPENDIXC:
        cfg = appendixc_config(name)
        return dispatch(cfg, build_dataset(cfg, 0), 0, np.array(INIT))
    init_global, init_local = SCRIPTED[name]
    stream = tuple(np.array(data[k], dtype=float) for k in ("x_global", "x_local", "y"))
    return run_fedres_sgd(dataset_from_streams([stream]), 0,
                          HyperParams(**SCRIPTED_HYPER), SCRIPTED_ROUNDS, 0,
                          init_global=np.array(init_global), init_locals=[np.array(init_local)])


def record(res) -> dict:
    return {
        "prediction": res.prediction.ravel().tolist(),
        "final_global": res.final_global.tolist(),
        "final_locals": [w.tolist() for w in res.final_locals],
        "fetch_counts": list(res.fetch_counts),
    }


def main() -> None:
    fixture = {"data": make_scripted_data()}
    fixture["runs"] = {name: record(run(fixture["data"], name)) for name in CASES}
    PATH.write_text(json.dumps(fixture) + "\n", encoding="utf-8")
    print(f"wrote {len(fixture['runs'])} runs to {PATH}")


if __name__ == "__main__":
    main()
