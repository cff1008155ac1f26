"""Shared independent oracles for the test suite.

These deliberately re-derive results through different computational paths
than the library (per-row formulas, explicit loops, projected gradient
descent, finite differences) so agreement is evidence, not tautology;
stepped_sgd_system exposes the engine's system for its gradient provenance,
and kernel_note names the OpenBLAS core in the recorded fixtures' messages.
Sample data is an (x_global (n, dg), x_local (n, dl), y (n,)) block, as in
the library, or one (xg, xl, y) row of one.
"""

from __future__ import annotations

import ctypes
import functools
from pathlib import Path

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


def pgd_ls_oracle_stacked(problems, iters: int = 20000) -> tuple[np.ndarray, np.ndarray]:
    """pgd_ls_oracle on a list of (rows (n, d), targets (n,), radius) problems
    at once, zero-padded to one (B, n_max, d_max) stack: a zero row or column
    adds only 0.0 terms. Returns w (B, d_max) and the objectives (B,). The
    per-problem loop is this version's oracle (see test_solver.py)."""
    n_max = max(a.shape[0] for a, _, _ in problems)
    d_max = max(a.shape[1] for a, _, _ in problems)
    rows, targets = np.zeros((len(problems), n_max, d_max)), np.zeros((len(problems), n_max))
    for k, (a, b, _) in enumerate(problems):
        rows[k, :a.shape[0], :a.shape[1]], targets[k, :len(b)] = a, b
    radii = np.array([[radius] for _, _, radius in problems], dtype=float)
    lam = np.linalg.eigvalsh(np.swapaxes(rows, 1, 2) @ rows).max(axis=-1)
    step = (1.0 / (2.0 * np.where(lam > 0, lam, 0.5)))[:, None]  # 1.0 at lam = 0, as in the loop
    w = np.zeros((len(problems), d_max))
    for _ in range(iters):
        resid = (rows @ w[..., None])[..., 0] - targets
        v = w - step * (2.0 * (resid[:, None, :] @ rows)[:, 0])
        # v * 1.0 inside the ball: ball_project_oracle's two cases in one
        w = v * (radii / np.maximum(np.sqrt(np.sum(v * v, axis=-1, keepdims=True)), radii))
    return w, np.sum(((rows @ w[..., None])[..., 0] - targets) ** 2, axis=-1)


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
    """Squared loss of the joint prediction on one row: (y - xg.wg - xl.wl)^2."""
    r = y - float(xg @ wg + xl @ wl)
    return float(r * r)


def joint_grads(wg: np.ndarray, wl: np.ndarray, xg: np.ndarray, xl: np.ndarray,
                y) -> tuple[np.ndarray, np.ndarray]:
    """Both block gradients of joint_loss: 2(pred - y) xg and 2(pred - y) xl."""
    r = 2.0 * (xg @ wg + xl @ wl - y)
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


@functools.cache
def blas_kernel() -> str | None:
    """The OpenBLAS core NumPy runs on (for example "SkylakeX"), read once from
    the OpenBLAS in numpy.libs; None when that library or its symbol is missing."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        corename = getattr(ctypes.CDLL(str(path)), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.restype = ctypes.c_char_p
            return corename().decode()
    return None


def kernel_note(recorded: str) -> str:
    """Assertion message of a fixture recorded under OpenBLAS core `recorded`:
    NumPy's products and solves round differently under other cores."""
    running = blas_kernel()
    if running == recorded:
        return f"recorded and running under OpenBLAS core {recorded}"
    return (f"recorded under OpenBLAS core {recorded} but running under {running}; "
            "other cores round differently, so these bits need not match")


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
