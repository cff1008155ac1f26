"""Per-client oracle for the regret comparator (solver.alternating_joint_ls).

The list-based form the stacked comparator replaced: one (n_i, d) block
per client, per-client Gram matmuls, one solve_gram call per client per
iteration, the global right-hand side summed client by client from zeros
and a generator-sum objective. The stacked comparator must give its bits.
"""

from __future__ import annotations

import numpy as np

from fedres.solver import solve_gram


def client_blocks(result) -> tuple:
    """A run's records as the oracle's per-client lists (x_global, x_local,
    y): client i's records in order, each block C-contiguous."""
    n = result.rounds * result.batch_size
    return tuple(
        [np.ascontiguousarray(a[:, i].reshape(n, *a.shape[3:])) for i in range(result.clients)]
        for a in (result.x_global, result.x_local, result.label)
    )


def alternating_joint_ls_oracle(xg_by_client, xl_by_client, y_by_client, radius: float,
                                tol: float = 1e-8, max_iters: int = 1000):
    """(global, list of locals, final objective), alternating exact solves."""
    clients = len(xg_by_client)
    d = xg_by_client[0].shape[1] if clients else 0
    gram_g = [xg.T @ xg for xg in xg_by_client]
    gram_l = [xl.T @ xl for xl in xl_by_client]
    cross = [xg.T @ xl for xg, xl in zip(xg_by_client, xl_by_client)]
    gy = [xg.T @ y for xg, y in zip(xg_by_client, y_by_client)]
    ly = [xl.T @ y for xl, y in zip(xl_by_client, y_by_client)]
    gram_g_total = sum(gram_g) if clients else np.zeros((d, d))

    wg = np.zeros(d)
    wls = [np.zeros(xl.shape[1]) for xl in xl_by_client]

    def objective() -> float:
        return float(
            sum(
                np.sum((y - xg @ wg - xl @ wl) ** 2)
                for xg, xl, y, wl in zip(xg_by_client, xl_by_client, y_by_client, wls)
            )
        )

    prev = objective()
    for _ in range(max_iters):
        wls = [
            solve_gram(gram_l[i], ly[i] - cross[i].T @ wg, radius) for i in range(clients)
        ]
        rhs = np.zeros(d)
        for i in range(clients):
            rhs += gy[i] - cross[i] @ wls[i]
        wg = solve_gram(gram_g_total, rhs, radius)
        cur = objective()
        if prev - cur < tol:
            return wg, wls, cur
        prev = cur
    return wg, wls, prev
