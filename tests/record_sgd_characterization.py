"""Record the characterization fixture used by test_characterization.py.

    PYTHONPATH=src python tests/record_sgd_characterization.py

Runs every delayed-SGD update variant at batch sizes 1 and 3 on a small
scripted problem with heterogeneous per-client delays (one client has a
zero round trip next to delayed ones, one starts outside the ball), and
both exact learners (ERM and fictitious play) on the same data with
uniform delays (2, 1) and a radius at which some client and some server
solves bind the ball. Both exact learners also run on a longer stream
(3 clients, 400 rounds, uniform delays (3, 2)) whose running sums span
several of ErmSystem's row blocks on both sides, again with a radius
that binds some solves on each side; that stream is stored as
"long_data". It writes the per-(round, client) losses and
predictions, the final models, the fetch counts and (SGD only) the
gradient provenance to tests/data/sgd_characterization.json. The stream
data is stored alongside, so the check needs no RNG. Floats are written
with repr, so the file round-trips bit for bit.

The bandit entries run the periodic-exploration policy (with noisy
rewards, the same per-client delays and per-client steps; at period 1,
and at periods that do not divide the horizon) and the uniform policy on
a seeded environment. They draw their contexts and rewards from the
seed's substreams, and add the per-round actions, the contextual regret
and the exploration count to the record.

Every SGD and exact-learner run also records its average regret
(compute_regret) and the regret comparator's models and objective
(alternating_joint_ls on each client's records in order), at the run's
own radius and at COMPARATOR_RADIUS, where every comparator solve binds
the ball. They are stored under "regret", after the stream data.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from fedres.bandit import (
    cb_regret,
    draw_episode,
    make_realizable_env,
    run_epsilon_greedy,
    run_uniform_policy,
)
from fedres.core import HyperParams
from fedres.datagen import ClientData, FederatedDataset
from fedres.engine import run_fedres_sgd
from fedres.erm import run_fedres_erm, run_fictitious_play
from fedres.harness import compute_regret
from fedres.solver import alternating_joint_ls

import sgd_oracle
from conftest import stepped_sgd_system
from joint_ls_oracle import client_blocks

PATH = Path(__file__).parent / "data" / "sgd_characterization.json"
ROUNDS, D_GLOBAL, D_LOCAL = 24, 3, 2
ALPHA, BETA = (0, 2, 4, 3), (0, 1, 5, 0)
HYPER = dict(radius=1.5, eta_global=0.06, eta_local=(0.05, 0.2, 0.1, 0.15))
INIT_GLOBAL = (0.3, -0.2, 0.1)
INIT_LOCALS = ((0.1, 0.2), (-0.4, 0.0), (1.6, 0.9), (0.0, -0.3))  # client 2 starts outside
VARIANTS = ("aligned", "misaligned", "asymmetric")
BATCHES = (1, 3)
EXACT = {"erm": run_fedres_erm, "fictitious": run_fictitious_play}
EXACT_DELAYS, EXACT_RADIUS = (2, 1), 0.8
# the long stream: true models with local norms on both sides of the radius
LONG = {"erm-long": run_fedres_erm, "fictitious-long": run_fictitious_play}
LONG_ROUNDS, LONG_DELAYS, LONG_RADIUS = 400, (3, 2), 1.0
LONG_GLOBAL = (0.6, -0.5, 0.55)
LONG_LOCALS = ((0.3, -0.2), (1.0, 0.8), (-0.7, 0.6))
# name: (exploration period or None for the uniform policy, rounds, reward noise)
BANDIT = {
    "bandit-p5": (5, 47, 0.05),
    "bandit-p1": (1, 24, 0.1),
    "bandit-p7-quiet": (7, 40, 0.0),
    "bandit-uniform": (None, 47, 0.05),
}
BANDIT_ACTIONS, BANDIT_SEED = 3, 11
BANDIT_HYPER = dict(radius=1.5, eta_global=0.3, eta_local=(0.2, 0.4, 0.3, 0.5))
COMPARATOR_RADIUS = 0.3
CASES = ([(b, v) for v in VARIANTS for b in BATCHES] + [(1, v) for v in EXACT]
         + [(1, v) for v in BANDIT] + [(1, v) for v in LONG])

REGRET_CASES = [(b, v) for b, v in CASES if v not in BANDIT]


def make_data(seed: int = 2024) -> dict:
    rng = np.random.default_rng(seed)
    clients = len(ALPHA)
    return {
        "x_global": rng.normal(0, 1, (clients, ROUNDS, D_GLOBAL)).tolist(),
        "x_local": rng.normal(0, 1, (clients, ROUNDS, D_LOCAL)).tolist(),
        "y": rng.normal(0, 2, (clients, ROUNDS)).tolist(),
    }


def make_long_data(seed: int = 2025) -> dict:
    """Stream rows rounded to 6 decimals; labels are the true joint
    prediction plus noise."""
    rng = np.random.default_rng(seed)
    clients = len(LONG_LOCALS)
    xg = rng.normal(0, 1, (clients, LONG_ROUNDS, D_GLOBAL)).round(6)
    xl = rng.normal(0, 1, (clients, LONG_ROUNDS, D_LOCAL)).round(6)
    y = xg @ np.array(LONG_GLOBAL) + np.vecdot(xl, np.array(LONG_LOCALS)[:, None, :])
    y = (y + rng.normal(0, 0.3, y.shape)).round(6)
    return {"x_global": xg.tolist(), "x_local": xl.tolist(), "y": y.tolist()}


def case_data(fixture: dict, variant: str) -> dict:
    return fixture["long_data"] if variant in LONG else fixture["data"]


def dataset(data: dict) -> FederatedDataset:
    streams = [tuple(np.array(a, dtype=float) for a in rows)
               for rows in zip(data["x_global"], data["x_local"], data["y"])]
    clients = [ClientData(train=st, test=tuple(a[:0] for a in st), task=("scripted",))
               for st in streams]
    return FederatedDataset(clients=clients, pregenerated=streams)


def bandit_env(variant: str):
    _period, _rounds, noise = BANDIT[variant]
    return make_realizable_env(BANDIT_ACTIONS, len(ALPHA), D_GLOBAL, D_LOCAL, BANDIT_SEED,
                               noise_sigma=noise)


def run(data: dict, variant: str, batch: int):
    if variant in BANDIT:
        period, rounds, _noise = BANDIT[variant]
        episode = draw_episode(bandit_env(variant), rounds, BANDIT_SEED)
        if period is None:
            return run_uniform_policy(episode)
        return run_epsilon_greedy(episode, (ALPHA, BETA), HyperParams(**BANDIT_HYPER), period)
    if variant in LONG:
        return LONG[variant](dataset(data), LONG_DELAYS, HyperParams(radius=LONG_RADIUS),
                             LONG_ROUNDS, 0)
    if variant in EXACT:
        return EXACT[variant](dataset(data), EXACT_DELAYS, HyperParams(radius=EXACT_RADIUS),
                              ROUNDS, 0, **inits())
    return run_fedres_sgd(dataset(data), (ALPHA, BETA), HyperParams(**HYPER), ROUNDS, 0,
                          variant=variant, batch_size=batch, **inits())


def inits() -> dict:
    return dict(init_global=np.array(INIT_GLOBAL), init_locals=[np.array(w) for w in INIT_LOCALS])


def alignment_offsets(data: dict, variant: str, batch: int) -> list:
    """The gradient provenance of an SGD case: the pairing of every gradient."""
    system = stepped_sgd_system(dataset(data), (ALPHA, BETA), HyperParams(**HYPER), ROUNDS, 0,
                                variant=variant, batch_size=batch, **inits())
    return [list(o) for o in sgd_oracle.alignment_offsets(system)]


def record(res) -> dict:
    return {
        "loss": res.loss.tolist(),
        "prediction": res.prediction.tolist(),
        "final_global": res.final_global.tolist(),
        "final_locals": [w.tolist() for w in res.final_locals],
        "fetch_counts": list(res.fetch_counts),
    }


def run_radius(variant: str) -> float:
    if variant in LONG:
        return LONG_RADIUS
    return EXACT_RADIUS if variant in EXACT else HYPER["radius"]


def record_regret(res, variant: str) -> list:
    out = []
    for radius in (run_radius(variant), COMPARATOR_RADIUS):
        wg, wls, objective = alternating_joint_ls(*client_blocks(res), radius)
        out.append({"radius": radius, "regret": compute_regret(res, radius=radius),
                    "wg": wg.tolist(), "wls": [w.tolist() for w in wls],
                    "objective": objective})
    return out


def record_case(data: dict, variant: str, batch: int) -> dict:
    res = run(data, variant, batch)
    out = record(res)
    if variant in VARIANTS:
        out["alignment_offsets"] = alignment_offsets(data, variant, batch)
    if variant in BANDIT:
        out.update(action=res.action.tolist(), cb_regret=cb_regret(res, bandit_env(variant)),
                   exploration_rounds=res.exploration_rounds)
    return out


def main() -> None:
    fixture = {"data": make_data(), "runs": {}, "long_data": make_long_data()}
    fixture["runs"] = {f"{v}-b{b}": record_case(case_data(fixture, v), v, b) for b, v in CASES}
    fixture["regret"] = {f"{v}-b{b}": record_regret(run(case_data(fixture, v), v, b), v)
                         for b, v in REGRET_CASES}
    PATH.write_text(json.dumps(fixture) + "\n", encoding="utf-8")
    print(f"wrote {len(fixture['runs'])} runs to {PATH}")


if __name__ == "__main__":
    main()
