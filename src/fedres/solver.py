"""Exact least squares over a Euclidean ball.

The constrained problem min_{||w|| <= r} ||A w - b||^2 is solved through
its ridge-regularized normal equations; when the unconstrained solution
leaves the ball, the Lagrange multiplier with ||w(lam)|| = r is located by
bisection. The fixed base ridge BASE_RIDGE keeps rank-deficient
early-round systems well posed and makes the minimizer unique (minimum
norm), which the deterministic replay tests rely on. Where a Gram
diagonal is so large that a ridge is lost in rounding and the system is
exactly singular (two equal or scaled columns, say), the solve retries
with the ridge doubled until it is not (_ridge_solve): every solve has an
answer, and one that is not singular keeps its bits.

Nothing materializes a design matrix: the learners maintain Gram blocks
incrementally and call solve_gram directly. solve_gram takes a leading
stack axis, (..., d, d) and (..., d), and solves one independent problem
per row: every row is first solved with the base ridge in one stacked
call, and only the rows whose solution leaves the ball (or is not finite)
are re-solved one at a time by the scalar path, bisection included, in C
where fedres.native loaded. Each row's bits are those of a separate call.

The regret comparator alternating_joint_ls works on the same stacks: its
data is client-major, xg (P, n, dg), xl (P, n, dl), y (P, n), and each of
its iterations is one stacked solve_gram call for the P locals and one for
the global. Its stopping test compares the n-row objective before and
after an alternation. _DecreaseScreen decides that test from (d, d)
quantities instead while a rounding-error bound proves its outcome:
gamma_k = k u / (1 - k u) for k roundings (Higham), which holds in any
summation order and with or without fused multiply-adds, so under any
BLAS kernel, with Cauchy-Schwarz through the Gram traces and ||y||. The
n-row pass then runs only on the last alternations (twice per fit on the
three-way protocol's data, against 127 times when it ran after every
alternation), and the result keeps its bits. The alternations it proves
run in C where fedres.native loaded (119 of 120 on that data).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
# The gufunc behind np.linalg.solve for a vector right-hand side, without
# the wrapper's per-call checks and error state: a singular system yields
# a NaN row (NumPy warns of an invalid value unless the caller's np.errstate
# ignores it), which the scalar path re-solves with the doubled ridge
# (tests/test_solver.py pins the bits).
from numpy.linalg._umath_linalg import solve1 as _stacked_solve

from . import native
from .errors import ConfigError

BASE_RIDGE = 1e-10
_BISECT_REL_TOL = 1e-10
_MAX_ALTERNATIONS = 1000


def solve_gram(ata: np.ndarray, atb: np.ndarray, radius: float) -> np.ndarray:
    """Ball-constrained least squares from normal-equation blocks.

    ata is A^T A (..., d, d), atb is A^T b (..., d); a leading stack axis
    holds independent problems and returns one solution per row. Objective
    gap to the true constrained minimum is bounded by the BASE_RIDGE
    perturbation, far below test tolerances. Two warnings precede a right
    answer unless the caller's np.errstate ignores them, as RoundSystem's
    run() and step() and alternating_joint_ls do (once per call of theirs,
    not per solve): a singular row's stacked solve warns of an invalid
    value before the scalar path answers it, and a base-ridge solution
    whose squares pass the largest double warns of an overflow in the
    inside-the-ball screen before the bisection puts it on the ball.
    """
    d = atb.shape[-1]
    if d == 0:
        return atb
    w = _stacked_solve(ata + _ridge_diagonal(d), atb)
    if w.ndim == 1:  # one problem: .dot (`@`'s bits for a square, less dispatch), a Python float
        return w if math.sqrt(w.dot(w)) <= radius else _solve_one(ata, atb, radius, w)
    inside = np.sqrt(np.vecdot(w, w)) <= radius  # np.linalg.norm's norm; NaN is outside
    if np.count_nonzero(inside) < inside.size:
        rows, a, b = w.reshape(-1, d), ata.reshape(-1, d, d), atb.reshape(-1, d)
        for i in np.flatnonzero(~inside):
            rows[i] = _solve_one(a[i], b[i], radius, rows[i])
    return w


@lru_cache(maxsize=16)
def _ridge_diagonal(d: int) -> np.ndarray:
    """BASE_RIDGE on the diagonal and -0.0 elsewhere: adding it leaves every
    off-diagonal entry's bits alone, -0.0 included, like adding the ridge
    to the diagonal of a copy."""
    out = np.where(np.eye(d, dtype=bool), BASE_RIDGE, -0.0)
    out.flags.writeable = False
    return out


def _solve_one(ata: np.ndarray, atb: np.ndarray, radius: float, w: np.ndarray) -> np.ndarray:
    """The scalar path for one (d, d) problem, given w, its stacked solve at
    the base ridge, outside the ball or not finite: a singular system's NaN
    is re-solved at a doubled ridge, then the bisection finds the ridge
    whose solution is on the ball. In C where fedres.native loaded (which
    solves at the base ridge again), else this body, the reference."""
    if native.LOOPS is not None:
        return native.solve(ata, atb, radius)
    with np.errstate(invalid="raise", over="ignore", divide="ignore", under="ignore"):
        if not np.isfinite(w).all():
            w = _ridge_solve(ata, atb, BASE_RIDGE)
            if float(np.linalg.norm(w)) <= radius:
                return w

        # ||w(lam)|| <= ||atb|| / lam, so this hi already satisfies the bound.
        lo = BASE_RIDGE
        hi = max(_norm_over(atb, radius), 2.0 * BASE_RIDGE)
        w = _ridge_solve(ata, atb, hi)
        while float(np.linalg.norm(w)) > radius:
            hi *= 2.0
            w = _ridge_solve(ata, atb, hi)
        while hi - lo > _BISECT_REL_TOL * hi:
            mid = 0.5 * (lo + hi)
            trial = _ridge_solve(ata, atb, mid)
            if float(np.linalg.norm(trial)) > radius:
                lo = mid
            else:
                hi, w = mid, trial
    return w  # the solve that accepted hi: on the ball, or inside it


def _norm_over(v: np.ndarray, radius: float) -> float:
    """np.linalg.norm(v) / radius; where the squares pass the largest
    double, from v scaled by its largest |entry| instead, so that the
    quotient is finite wherever the true one is."""
    norm = float(np.linalg.norm(v))
    top = float(np.abs(v).max())
    if norm == math.inf and top < math.inf:
        scaled = v / top
        return top / radius * math.sqrt(scaled.dot(scaled))
    return norm / radius


def _ridge_solve(ata: np.ndarray, atb: np.ndarray, ridge: float) -> np.ndarray:
    """(ata + ridge I) w = atb, with the ridge doubled while that system is
    exactly singular; NaN if it still is at an infinite or NaN ridge.

    LAPACK's dgesv fails only on a pivot that is exactly zero, where solve1
    flags an invalid value: np.linalg.solve's LinAlgError, and here the
    FloatingPointError of _solve_one's np.errstate. The ridge doubles until
    it passes the rounding of the diagonal, and from there the pivots of a
    Gram matrix, which is positive semidefinite, are at least about the
    ridge. At the latest, it reaches infinity (after about 1,100 doublings
    from BASE_RIDGE): every diagonal entry is then infinite, and partial
    pivoting takes infinite or NaN pivots, never zero. A non-finite ridge
    stops the loop all the same, so it ends on any input.
    """
    while True:
        m = ata.copy()
        m.flat[:: m.shape[0] + 1] += ridge
        try:
            return _stacked_solve(m, atb, signature="dd->d")
        except FloatingPointError:
            if not ridge < math.inf:
                return np.full(atb.shape, math.nan)
            ridge *= 2.0


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

    The stopping test compares the n-row objective (_objective) of the
    previous and the current iterate. While it can, _DecreaseScreen proves
    from (d, d) quantities that the test does not stop; from the first
    alternation it cannot prove, the objective is evaluated and the loop
    is the plain one. A proved alternation would not have stopped, so the
    result has the bits of evaluating the objective after every one.

    Where fedres.native loaded, the alternations the screen proves run in C
    (native.alternate, with its formulas), and this loop, the reference,
    goes on from the last of them.

    The proof. f is the exact objective and f^ its floating value. An
    alternation steps the locals from wl0 to wl1 at wg0, then the global
    from wg0 to wg1. f is quadratic, so each block's exact decrease is
    D = (w0 - w1) . (G (w0 + w1) - 2 c), with G the block's Gram matrix and
    c its solve's right-hand side; the locals' decreases add over clients. The
    screen computes D^ from the solver's own G and c and skips the
    objective when D^ - E(f^ prev) - E(f^ cur) - E(D^) >= tol. That
    implies f^(prev) - f^(cur) >= tol, and rounding is monotone, so
    `prev - cur < tol` is false. Each E bounds rounding error with Higham's
    gamma_k = k u / (1 - k u) for k roundings, taken four times over (which
    also covers the bound's own arithmetic). gamma_k holds for any order of
    the k roundings and with or without fused multiply-adds, so for any
    BLAS kernel and any summation NumPy picks. |x| . |w| terms are bounded
    by Cauchy-Schwarz through Y = ||y||, a = sqrt(tr G_global) and
    b = max over clients of sqrt(tr G_local), computed once per fit. With
    N = P n records and d = dg + dl:

    - each residual carries gamma_{d+3} (two dot products, two
      subtractions) of |y_i| + |x_i| . |w|, whose l2 norm over the records
      is at most A(w) = Y + a ||wg|| + b ||wl||;
    - E(f^) = gamma_N V^2 + 2 gamma_{d+3} A V with V = sqrt(U) + gamma_{d+3} A:
      summing the squares carries gamma_N, and residual errors e move the
      exact sum by at most 2 ||e|| sqrt(f) + ||e||^2. U bounds f from
      above: Y^2 (1 + gamma_N) at the zero start, then U - D^ + E(D^);
    - E(D^) = gamma_{n+(P+3)(d+2)} (b ||wl0 - wl1|| (A0 + Am)
      + a ||wg0 - wg1|| (Am + A1)), A at the previous, middle (wg0, wl1)
      and current iterates: each Gram entry and right-hand side carries
      gamma_{n+d+P+1} of |x| . |x| or |x| (|y| + |x| . |w|), and D^'s own
      arithmetic adds (P + 2) d + 4 roundings.

    Gradual underflow adds at most 2**-1075 per product. Adding
    4 sqrt(tiny) (N + 1)(d + 1)(P + 1) to Y, a, b and every norm, and
    (N + (P + 1) d + 1) 2**-1074 to each E, covers it. A value that is not
    finite fails the proof.
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
    screen = _DecreaseScreen(y, gram_g_total, gram_l)

    done, wg, wls = 0, np.zeros(xg.shape[2]), np.zeros((len(xl), xl.shape[2]))
    prev = None  # the objective at the previous iterate, once the screen hands over
    # a singular block's stacked solve, a base-ridge solution's overflowing squares (solve_gram)
    with np.errstate(over="ignore", invalid="ignore"):
        if native.LOOPS is not None:  # the alternations the screen proves, in C
            done, wg, wls = native.alternate((gram_l, ly, cross, gram_g_total, gy), screen,
                                             radius, tol, _MAX_ALTERNATIONS)
        for _ in range(done, _MAX_ALTERNATIONS):
            wg0, wls0 = wg, wls
            rhs_l = ly - cross_t @ wg
            wls = solve_gram(gram_l, rhs_l, radius)
            rhs_g = _client_sum(gy - (cross @ wls[..., None])[..., 0])
            wg = solve_gram(gram_g_total, rhs_g, radius)
            if prev is None:
                if screen.proves(tol, wls0, wls, rhs_l, wg0, wg, rhs_g):
                    continue
                prev = _objective(xg, xl, y, wg0, wls0)
            cur = _objective(xg, xl, y, wg, wls)
            if prev - cur < tol:
                return wg, wls, cur
            prev = cur
    return wg, wls, _objective(xg, xl, y, wg, wls) if prev is None else prev


def _objective(xg: np.ndarray, xl: np.ndarray, y: np.ndarray, wg: np.ndarray,
               wls: np.ndarray) -> float:
    """Total squared error of the joint model (wg, wls): one pass over every record."""
    r = y - xg @ wg
    r -= (xl @ wls[..., None])[..., 0]
    return float(_client_sum(np.sum(np.square(r, out=r), axis=1)))


_UNIT_ROUNDOFF = 2.0 ** -53
# sqrt of the smallest normal float, and the largest absolute error of a
# product that underflows (2**-1075), doubled
_SQRT_TINY = math.sqrt(np.finfo(float).tiny)
_UNDERFLOW = 2.0 ** -1074


def _gamma(k: int) -> float:
    """Four times Higham's gamma_k = k u / (1 - k u), the relative error of
    k roundings in any order."""
    return 4.0 * k * _UNIT_ROUNDOFF / (1.0 - k * _UNIT_ROUNDOFF)


class _DecreaseScreen:
    """Proves an alternation's `prev - cur >= tol` without the n-row
    objective, by the bound in alternating_joint_ls's docstring."""

    def __init__(self, y: np.ndarray, gram_g: np.ndarray, gram_l: np.ndarray):
        p, n = y.shape
        records, d = p * n, gram_g.shape[-1] + gram_l.shape[-1]
        self.pad = 4.0 * _SQRT_TINY * (records + 1) * (d + 1) * (p + 1)
        self.y = math.sqrt(np.vdot(y, y)) + self.pad
        self.a = math.sqrt(np.trace(gram_g)) + self.pad
        self.b = math.sqrt(np.trace(gram_l, axis1=1, axis2=2).max()) + self.pad
        self.gamma_sum, self.gamma_res = _gamma(records), _gamma(d + 3)
        self.gamma_dec = _gamma(n + (p + 3) * (d + 2))
        self.floor = (records + (p + 1) * d + 1) * _UNDERFLOW
        self.gram_g, self.gram_l = gram_g, gram_l
        self.bound = self.y * self.y * (1.0 + self.gamma_sum)
        self.norm_g = self.norm_l = self.pad  # of the previous iterate, zero at first

    def proves(self, tol: float, wl0: np.ndarray, wl1: np.ndarray, rhs_l: np.ndarray,
               wg0: np.ndarray, wg1: np.ndarray, rhs_g: np.ndarray) -> bool:
        """Whether the step (wg0, wl0) -> (wg1, wl1) provably decreases the
        objective's floating value by at least tol; if so, the current
        iterate becomes the previous one."""
        step_l, step_g = wl0 - wl1, wg0 - wg1
        dec = float(np.vdot(step_l, np.vecdot(self.gram_l, (wl0 + wl1)[:, None, :]) - 2.0 * rhs_l)
                    + step_g.dot(self.gram_g @ (wg0 + wg1) - 2.0 * rhs_g))
        pad, y, a, b = self.pad, self.y, self.a, self.b
        norm_g, norm_l = math.sqrt(wg1.dot(wg1)) + pad, math.sqrt(np.vdot(wl1, wl1)) + pad
        a0 = y + a * self.norm_g + b * self.norm_l
        am = y + a * self.norm_g + b * norm_l
        a1 = y + a * norm_g + b * norm_l
        err_dec = self.gamma_dec * (b * (math.sqrt(np.vdot(step_l, step_l)) + pad) * (a0 + am)
                                    + a * (math.sqrt(step_g.dot(step_g)) + pad) * (am + a1))
        err_dec += self.floor
        bound = self.bound - dec + err_dec + 4.0 * _UNIT_ROUNDOFF * (self.bound + abs(dec))
        if not 0.0 <= bound < math.inf:
            return False
        slack = dec - self._objective_error(self.bound, a0) - self._objective_error(bound, a1)
        if not tol <= slack - err_dec < math.inf:
            return False
        self.bound, self.norm_g, self.norm_l = bound, norm_g, norm_l
        return True

    def _objective_error(self, bound: float, size: float) -> float:
        """E(f^) at an iterate with objective at most bound and A = size."""
        v = math.sqrt(bound) + self.gamma_res * size
        return self.gamma_sum * (v * v) + 2.0 * self.gamma_res * size * v + self.floor


def _client_sum(a: np.ndarray) -> np.ndarray:
    """Sum over the client axis 0: the bits of a `total += a[i]` loop from zero."""
    return 0.0 + np.add.accumulate(a, axis=0)[-1]
