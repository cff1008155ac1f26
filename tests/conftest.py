"""Shared independent oracles for the test suite.

These deliberately re-derive results through different computational paths
than the library (per-row formulas, explicit loops, projected gradient
descent, finite differences) so agreement is evidence, not tautology;
stepped_sgd_system exposes the engine's system for its gradient provenance.
Sample data is an (x_global (n, dg), x_local (n, dl), y (n,)) block, as in
the library, or one (xg, xl, y) row of one.
"""

from __future__ import annotations

import numpy as np
import pytest

from fedres.engine import SgdSystem
from fedres.solver import solve_gram


def ball_project_oracle(v: np.ndarray, radius: float) -> np.ndarray:
    n = np.sqrt(float(np.sum(v * v)))
    if n <= radius:
        return v.copy()
    return v * (radius / n)


def pgd_ls_oracle(rows: np.ndarray, targets: np.ndarray, radius: float,
                  iters: int = 20000) -> tuple[np.ndarray, float]:
    """Projected gradient descent on ||Aw - b||^2 over the radius ball.

    Returns (w, objective). Used as an upper-bound oracle: an exact solver
    must never do worse than this.
    """
    n, d = rows.shape
    if n == 0:
        return np.zeros(d), 0.0
    lam = float(np.linalg.eigvalsh(rows.T @ rows).max())
    step = 1.0 / (2.0 * lam) if lam > 0 else 1.0
    w = np.zeros(d)
    for _ in range(iters):
        grad = 2.0 * rows.T @ (rows @ w - targets)
        w = ball_project_oracle(w - step * grad, radius)
    return w, float(np.sum((rows @ w - targets) ** 2))


def ls_objective(rows: np.ndarray, targets: np.ndarray, w: np.ndarray) -> float:
    return float(np.sum((rows @ w - targets) ** 2))


def stack_rows(rows) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(x_global (n, dg), x_local (n, dl), y (n,)) blocks of (xg, xl, y) rows."""
    xg, xl, y = zip(*rows)
    return np.array(xg, dtype=float), np.array(xl, dtype=float), np.array(y, dtype=float)


def rows_of(block) -> list[tuple]:
    """The rows of an (x_global, x_local, y) block as (xg, xl, y) triples,
    y a Python float."""
    return [(xg, xl, float(y)) for xg, xl, y in zip(*block)]


def joint_loss(wg: np.ndarray, wl: np.ndarray, xg: np.ndarray, xl: np.ndarray, y) -> float:
    """Squared loss of the joint prediction on one row: (y - wg.xg - wl.xl)^2."""
    r = y - float(wg @ xg + wl @ xl)
    return float(r * r)


def joint_grads(wg: np.ndarray, wl: np.ndarray, xg: np.ndarray, xl: np.ndarray,
                y) -> tuple[np.ndarray, np.ndarray]:
    """Both block gradients of joint_loss: 2(pred - y) xg and 2(pred - y) xl."""
    r = 2.0 * (wg @ xg + wl @ xl - y)
    return r * xg, r * xl


def solve_rows(rows: np.ndarray, targets: np.ndarray, radius: float) -> np.ndarray:
    """min over ||w|| <= radius of ||rows w - targets||^2 through solve_gram."""
    return solve_gram(rows.T @ rows, rows.T @ targets, radius)


def finite_diff_grads(wg: np.ndarray, wl: np.ndarray, xg: np.ndarray, xl: np.ndarray, y,
                      step: float = 1e-5) -> tuple[np.ndarray, np.ndarray]:
    """Central finite differences of joint_loss in both blocks."""

    def shift(v, j, h):
        out = v.copy()
        out[j] += h
        return out

    gg = np.array(
        [
            (joint_loss(shift(wg, j, step), wl, xg, xl, y)
             - joint_loss(shift(wg, j, -step), wl, xg, xl, y)) / (2 * step)
            for j in range(len(wg))
        ]
    )
    gl = np.array(
        [
            (joint_loss(wg, shift(wl, j, step), xg, xl, y)
             - joint_loss(wg, shift(wl, j, -step), xg, xl, y)) / (2 * step)
            for j in range(len(wl))
        ]
    )
    return gg, gl


def random_instance(rng: np.random.Generator, d_global: int = 3, d_local: int = 2):
    """(wg, wl, (xg, xl, y)): a random pair and one random row."""
    wg = rng.normal(0, 1, d_global)
    wl = rng.normal(0, 1, d_local)
    row = rng.normal(0, 1, d_global), rng.normal(0, 1, d_local), float(rng.normal(0, 2))
    return wg, wl, row


def stepped_sgd_system(dataset, delays, hyper, rounds: int, seed: int, *, batch_size: int = 1,
                       **kwargs) -> SgdSystem:
    """The SgdSystem run_fedres_sgd builds on these arguments, stepped over the
    whole horizon; sgd_oracle.alignment_offsets lists the pairing of its gradients."""
    system = SgdSystem.build(dataset, delays, hyper, rounds, seed, batch_size, **kwargs)
    for _ in range(len(system.label)):
        system.step()
    return system


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
