#!/usr/bin/env python3
"""Why a purely central model fails on a sign-split population.

Labels follow y = (u_global + u_i) . x with u_i = +v for the first half of
the clients and -v for the second half. A central learner on pooled data
converges to u_global and keeps an irreducible mean loss of |v|^2 per
sample; the residual scheme's local models absorb the +-v component.

Example:
    python scripts/sign_split_separation.py --clients 10 --rounds 2000
"""

import argparse

import numpy as np

from fedres import (HyperParams, central_view, default_eta, gen_example2, independent_view,
                    run_fedres_sgd)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--clients", type=int, default=10)
    ap.add_argument("--dim", type=int, default=4)
    ap.add_argument("--rounds", type=int, default=2000)
    ap.add_argument("--v-norm", type=float, default=1.0)
    ap.add_argument("--noise", type=float, default=0.0)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    v = np.full(args.dim, args.v_norm / np.sqrt(args.dim))
    ds = gen_example2(args.clients, args.dim, v, args.noise, args.rounds, args.seed)
    eta = default_eta(args.rounds)
    hp = HyperParams(eta_global=eta, eta_local=eta)

    runs = {
        "central": run_fedres_sgd(central_view(ds), 0, hp, args.rounds, args.seed),
        "independent": run_fedres_sgd(independent_view(ds), 0, hp, args.rounds, args.seed),
        "fedres-sgd": run_fedres_sgd(ds, 0, hp, args.rounds, args.seed),
    }
    print(f"irreducible central floor |v|^2 = {args.v_norm ** 2:.3f}")
    print("algorithm    terminal mean loss")
    for name, res in runs.items():
        print(f"{name:<12} {res.terminal_mean_loss():.6g}")


if __name__ == "__main__":
    main()
