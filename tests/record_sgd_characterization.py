"""Record the delayed-SGD characterization fixture used by test_characterization.py.

    PYTHONPATH=src python tests/record_sgd_characterization.py

Runs every update variant at batch sizes 1 and 3 on a small scripted
problem with heterogeneous per-client delays (one client has a zero round
trip next to delayed ones, one starts outside the ball) and writes the
per-(round, client) losses and predictions, the final models, the fetch
counts and the gradient provenance to tests/data/sgd_characterization.json.
The stream data is stored alongside, so the check needs no RNG. Floats are
written with repr, so the file round-trips bit for bit.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from fedres.core import HyperParams, Sample
from fedres.datagen import ClientData, FederatedDataset
from fedres.engine import run_fedres_sgd

PATH = Path(__file__).parent / "data" / "sgd_characterization.json"
ROUNDS, D_GLOBAL, D_LOCAL = 24, 3, 2
ALPHA, BETA = (0, 2, 4, 3), (0, 1, 5, 0)
HYPER = dict(radius=1.5, eta_global=0.06, eta_local=(0.05, 0.2, 0.1, 0.15))
INIT_GLOBAL = (0.3, -0.2, 0.1)
INIT_LOCALS = ((0.1, 0.2), (-0.4, 0.0), (1.6, 0.9), (0.0, -0.3))  # client 2 starts outside
VARIANTS = ("aligned", "misaligned", "asymmetric")
BATCHES = (1, 3)


def make_data(seed: int = 2024) -> dict:
    rng = np.random.default_rng(seed)
    clients = len(ALPHA)
    return {
        "x_global": rng.normal(0, 1, (clients, ROUNDS, D_GLOBAL)).tolist(),
        "x_local": rng.normal(0, 1, (clients, ROUNDS, D_LOCAL)).tolist(),
        "y": rng.normal(0, 2, (clients, ROUNDS)).tolist(),
    }


def dataset(data: dict) -> FederatedDataset:
    streams = [
        [Sample(np.array(xg), np.array(xl), float(y)) for xg, xl, y in zip(*rows)]
        for rows in zip(data["x_global"], data["x_local"], data["y"])
    ]
    clients = [ClientData(train=st, test=[], task=("scripted",)) for st in streams]
    return FederatedDataset(clients=clients, d_global=D_GLOBAL, d_locals=[D_LOCAL] * len(streams),
                            pregenerated=streams)


def run(data: dict, variant: str, batch: int):
    return run_fedres_sgd(
        dataset(data), (ALPHA, BETA), HyperParams(**HYPER), ROUNDS, 0, variant=variant,
        batch_size=batch, init_global=np.array(INIT_GLOBAL),
        init_locals=[np.array(w) for w in INIT_LOCALS], record_provenance=True,
    )


def record(res) -> dict:
    traces = list(res.traces)
    clients = res.clients
    rows = [traces[n * clients:(n + 1) * clients] for n in range(res.rounds)]
    return {
        "loss": [[tr.loss for tr in row] for row in rows],
        "prediction": [[list(np.atleast_1d(tr.prediction).tolist()) for tr in row] for row in rows],
        "final_global": res.final_global.tolist(),
        "final_locals": [w.tolist() for w in res.final_locals],
        "fetch_counts": list(res.fetch_counts),
        "alignment_offsets": [list(o) for o in res.system.alignment_offsets()],
    }


def main() -> None:
    data = make_data()
    runs = {f"{v}-b{b}": record(run(data, v, b)) for v in VARIANTS for b in BATCHES}
    PATH.write_text(json.dumps({"data": data, "runs": runs}) + "\n", encoding="utf-8")
    print(f"wrote {len(runs)} runs to {PATH}")


if __name__ == "__main__":
    main()
