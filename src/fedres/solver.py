"""Exact least squares over a Euclidean ball.

The constrained problem min_{||w|| <= r} ||A w - b||^2 is solved through
its ridge-regularized normal equations; when the unconstrained solution
leaves the ball, the Lagrange multiplier with ||w(lam)|| = r is located by
bisection. The tiny base ridge keeps rank-deficient early-round systems
well posed and makes the minimizer unique (minimum norm), which the
deterministic replay tests rely on.

Learners never materialize design matrices: they maintain Gram blocks
incrementally and call solve_gram directly. solve_gram takes a leading
stack axis, (..., d, d) and (..., d), and solves one independent problem
per row: every row is first solved with the base ridge in one stacked
call, and only the rows whose solution leaves the ball (or is not finite)
are re-solved one at a time by the scalar path, bisection included. Each
row's bits are those of a separate call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
# The gufunc behind np.linalg.solve for a vector right-hand side, without
# the wrapper's per-call checks and error state: a singular system yields
# a non-finite row (NumPy warns of an invalid value), which the scalar path
# re-solves through np.linalg.solve and so raises LinAlgError
# (tests/test_solver.py pins the bits and the error).
from numpy.linalg._umath_linalg import solve1 as _stacked_solve

from .errors import ConfigError

BASE_RIDGE = 1e-10
_BISECT_REL_TOL = 1e-10


@dataclass(frozen=True)
class ConstrainedLsProblem:
    """min over ||w|| <= radius of sum_s (targets[s] - w . rows[s])^2."""

    rows: np.ndarray  # (n, d), n may be 0
    targets: np.ndarray  # (n,)
    radius: float

    def __post_init__(self):
        if self.rows.ndim != 2 or self.targets.shape != (self.rows.shape[0],):
            raise ConfigError(
                f"rows {self.rows.shape} and targets {self.targets.shape} are inconsistent"
            )
        if self.radius <= 0:
            raise ConfigError(f"radius must be positive, got {self.radius}")


def solve_gram(
    ata: np.ndarray, atb: np.ndarray, radius: float, ridge: float = BASE_RIDGE
) -> np.ndarray:
    """Ball-constrained least squares from normal-equation blocks.

    ata is A^T A (..., d, d), atb is A^T b (..., d); a leading stack axis
    holds independent problems and returns one solution per row. Objective
    gap to the true constrained minimum is bounded by the ridge
    perturbation, far below test tolerances.
    """
    d = atb.shape[-1]
    if d == 0:
        return atb
    w = _stacked_solve(ata + _ridge_diagonal(d, ridge), atb)
    inside = np.sqrt(np.vecdot(w, w)) <= radius  # np.linalg.norm's norm; NaN is outside
    if np.count_nonzero(inside) < inside.size:
        rows, a, b = w.reshape(-1, d), ata.reshape(-1, d, d), atb.reshape(-1, d)
        for i in np.flatnonzero(~inside):
            rows[i] = _solve_one(a[i], b[i], radius, ridge)
    return w


@lru_cache(maxsize=16)
def _ridge_diagonal(d: int, ridge: float) -> np.ndarray:
    """ridge on the diagonal and -0.0 elsewhere: adding it leaves every
    off-diagonal entry's bits alone, -0.0 included, like adding ridge to
    the diagonal of a copy."""
    out = np.where(np.eye(d, dtype=bool), ridge, -0.0)
    out.flags.writeable = False
    return out


def _solve_one(ata: np.ndarray, atb: np.ndarray, radius: float, ridge: float) -> np.ndarray:
    """The scalar path for one (d, d) problem, bisection included."""
    w = _ridge_solve(ata, atb, ridge)
    norm = float(np.linalg.norm(w))
    if norm <= radius:
        return w

    # ||w(lam)|| <= ||atb|| / lam, so this hi already satisfies the bound.
    lo = ridge
    hi = max(float(np.linalg.norm(atb)) / radius, 2.0 * ridge)
    while float(np.linalg.norm(_ridge_solve(ata, atb, hi))) > radius:
        hi *= 2.0
    while hi - lo > _BISECT_REL_TOL * hi:
        mid = 0.5 * (lo + hi)
        if float(np.linalg.norm(_ridge_solve(ata, atb, mid))) > radius:
            lo = mid
        else:
            hi = mid
    w = _ridge_solve(ata, atb, hi)
    norm = float(np.linalg.norm(w))
    if norm > radius:
        w = w * (radius / norm)
    return w


def _ridge_solve(ata: np.ndarray, atb: np.ndarray, ridge: float) -> np.ndarray:
    m = ata.copy()
    m.flat[:: m.shape[0] + 1] += ridge
    return np.linalg.solve(m, atb)


def solve_constrained_ls(p: ConstrainedLsProblem, ridge: float = BASE_RIDGE) -> np.ndarray:
    """Solve an explicit-row problem; an empty problem yields the zero vector."""
    if ridge <= 0:
        raise ConfigError(f"ridge must be positive, got {ridge}")
    n, d = p.rows.shape
    if n == 0:
        return np.zeros(d)
    return solve_gram(p.rows.T @ p.rows, p.rows.T @ p.targets, p.radius, ridge)


def alternating_joint_ls(
    xg_by_client: list[np.ndarray],
    xl_by_client: list[np.ndarray],
    y_by_client: list[np.ndarray],
    radius: float,
    tol: float = 1e-8,
    max_iters: int = 1000,
) -> tuple[np.ndarray, list[np.ndarray], float]:
    """Best joint (global, per-client local) fit of pooled offline data.

    Alternates exact ball-constrained solves (all locals given the global,
    then the global given all locals) until the total squared error
    improves by less than tol. Used as the default regret comparator.
    Returns (global, locals, final objective).
    """
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
