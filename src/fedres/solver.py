"""Exact least squares over a Euclidean ball.

The constrained problem min_{||w|| <= r} ||A w - b||^2 is solved through
its ridge-regularized normal equations; when the unconstrained solution
leaves the ball, the Lagrange multiplier with ||w(lam)|| = r is located by
bisection. The fixed base ridge BASE_RIDGE keeps rank-deficient
early-round systems well posed and makes the minimizer unique (minimum
norm), which the deterministic replay tests rely on.

Nothing materializes a design matrix: the learners maintain Gram blocks
incrementally and call solve_gram directly. solve_gram takes a leading
stack axis, (..., d, d) and (..., d), and solves one independent problem
per row: every row is first solved with the base ridge in one stacked
call, and only the rows whose solution leaves the ball (or is not finite)
are re-solved one at a time by the scalar path, bisection included. Each
row's bits are those of a separate call.

The regret comparator alternating_joint_ls works on the same stacks: its
data is client-major, xg (P, n, dg), xl (P, n, dl), y (P, n), and each of
its iterations is one stacked solve_gram call for the P locals and one for
the global.
"""

from __future__ import annotations

import math
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
_MAX_ALTERNATIONS = 1000


def solve_gram(ata: np.ndarray, atb: np.ndarray, radius: float) -> np.ndarray:
    """Ball-constrained least squares from normal-equation blocks.

    ata is A^T A (..., d, d), atb is A^T b (..., d); a leading stack axis
    holds independent problems and returns one solution per row. Objective
    gap to the true constrained minimum is bounded by the BASE_RIDGE
    perturbation, far below test tolerances.
    """
    d = atb.shape[-1]
    if d == 0:
        return atb
    w = _stacked_solve(ata + _ridge_diagonal(d), atb)
    if w.ndim == 1:  # one problem: .dot (`@`'s bits for a square, less dispatch), a Python float
        return w if math.sqrt(w.dot(w)) <= radius else _solve_one(ata, atb, radius)
    inside = np.sqrt(np.vecdot(w, w)) <= radius  # np.linalg.norm's norm; NaN is outside
    if np.count_nonzero(inside) < inside.size:
        rows, a, b = w.reshape(-1, d), ata.reshape(-1, d, d), atb.reshape(-1, d)
        for i in np.flatnonzero(~inside):
            rows[i] = _solve_one(a[i], b[i], radius)
    return w


@lru_cache(maxsize=16)
def _ridge_diagonal(d: int) -> np.ndarray:
    """BASE_RIDGE on the diagonal and -0.0 elsewhere: adding it leaves every
    off-diagonal entry's bits alone, -0.0 included, like adding the ridge
    to the diagonal of a copy."""
    out = np.where(np.eye(d, dtype=bool), BASE_RIDGE, -0.0)
    out.flags.writeable = False
    return out


def _solve_one(ata: np.ndarray, atb: np.ndarray, radius: float) -> np.ndarray:
    """The scalar path for one (d, d) problem, bisection included."""
    w = _ridge_solve(ata, atb, BASE_RIDGE)
    norm = float(np.linalg.norm(w))
    if norm <= radius:
        return w

    # ||w(lam)|| <= ||atb|| / lam, so this hi already satisfies the bound.
    lo = BASE_RIDGE
    hi = max(float(np.linalg.norm(atb)) / radius, 2.0 * BASE_RIDGE)
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


def alternating_joint_ls(
    xg: np.ndarray,
    xl: np.ndarray,
    y: np.ndarray,
    radius: float,
    tol: float = 1e-8,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Best joint (global, per-client local) fit of pooled offline data.

    The data is stacked client-major: xg (P, n, dg), xl (P, n, dl) and
    y (P, n), each client's n records in order; an equal-shape list of
    per-client blocks converts. Alternates exact ball-constrained solves
    (all locals given the global, then the global given all locals) until
    the total squared error improves by less than tol, at most
    _MAX_ALTERNATIONS times. Used as the default regret comparator.
    Returns (global (dg,), locals (P, dl), final objective).

    Each side is one stacked solve_gram call per iteration, and sums over
    clients run in client order from zero, so the bits are those of a
    client-by-client loop (tests/joint_ls_oracle.py).
    """
    try:
        xg, xl, y = (np.ascontiguousarray(a, dtype=float) for a in (xg, xl, y))
    except ValueError:
        raise ConfigError("every client needs the same number of records") from None
    if xg.ndim != 3 or xl.ndim != 3 or not xg.shape[:2] == xl.shape[:2] == y.shape:
        raise ConfigError(f"blocks {xg.shape}, {xl.shape} and labels {y.shape} are not "
                          "(P, n, dg), (P, n, dl) and (P, n)")
    xgt, xlt = xg.swapaxes(1, 2), xl.swapaxes(1, 2)
    gram_g_total = _client_sum(xgt @ xg)
    gram_l, cross = xlt @ xl, xgt @ xl
    cross_t = cross.swapaxes(1, 2)
    gy, ly = (xgt @ y[..., None])[..., 0], (xlt @ y[..., None])[..., 0]

    wg = np.zeros(xg.shape[2])
    wls = np.zeros((len(xl), xl.shape[2]))

    def objective() -> float:
        r = y - xg @ wg
        r -= (xl @ wls[..., None])[..., 0]
        return float(_client_sum(np.sum(np.square(r, out=r), axis=1)))

    prev = objective()
    for _ in range(_MAX_ALTERNATIONS):
        wls = solve_gram(gram_l, ly - cross_t @ wg, radius)
        wg = solve_gram(gram_g_total, _client_sum(gy - (cross @ wls[..., None])[..., 0]), radius)
        cur = objective()
        if prev - cur < tol:
            return wg, wls, cur
        prev = cur
    return wg, wls, prev


def _client_sum(a: np.ndarray) -> np.ndarray:
    """Sum over the client axis 0: the bits of a `total += a[i]` loop from zero."""
    return 0.0 + np.add.accumulate(a, axis=0)[-1]
