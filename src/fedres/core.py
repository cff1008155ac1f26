"""Numeric kernel: samples, the joint residual prediction, squared loss,
its two block gradients, and the ball projection.

Predictions are additive: a global linear model scores the global feature
block, a per-client local model scores the local block, and the sum is the
joint prediction. The squared loss of that sum is the only loss; the
delayed-gradient engine applies the same formulas to stacked arrays.

All vectors are dense float64 ndarrays. Parameter vectors are treated as
immutable: every update produces a new array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, InvariantError

DEFAULT_RADIUS = 100.0


@dataclass(frozen=True)
class Sample:
    """One observation: global features, local features, label."""

    x_global: np.ndarray
    x_local: np.ndarray
    y: float


@dataclass(frozen=True)
class ResidualMessage:
    """Uplink record for one round of one client.

    Carries the global features, the label, and the client's local
    prediction (its residual) instead of the local model itself; this is
    all the server needs to form its global-block gradient.
    """

    x_global: np.ndarray
    local_prediction: float
    y: float
    client_id: int
    sent_at: int


@dataclass(frozen=True)
class HyperParams:
    """Step sizes and the feasible-ball radius.

    eta_local may be a scalar (shared by all clients) or one value per
    client.
    """

    radius: float = DEFAULT_RADIUS
    eta_global: float = 0.1
    eta_local: float | Sequence[float] = 0.1

    def __post_init__(self):
        etas = np.atleast_1d(np.asarray(self.eta_local, dtype=float))
        if not (self.radius > 0 and np.isfinite(self.radius)):
            raise ConfigError(f"radius must be positive and finite, got {self.radius}")
        if not (self.eta_global > 0 and np.isfinite(self.eta_global)):
            raise ConfigError(f"eta_global must be positive and finite, got {self.eta_global}")
        if not (np.all(etas > 0) and np.all(np.isfinite(etas))):
            raise ConfigError(f"eta_local must be positive and finite, got {self.eta_local}")

    def eta_for(self, client_id: int, clients: int) -> float:
        if np.isscalar(self.eta_local):
            return float(self.eta_local)
        etas = list(self.eta_local)
        if len(etas) != clients:
            raise ConfigError(f"eta_local has {len(etas)} entries for {clients} clients")
        return float(etas[client_id])


def default_eta(rounds: int) -> float:
    """Default step size when none is configured: 0.5 / sqrt(T)."""
    return 0.5 / np.sqrt(rounds)


def _check_dims(wg: np.ndarray, wl: np.ndarray, s: Sample) -> None:
    if wg.shape != s.x_global.shape or wl.shape != s.x_local.shape:
        raise ValueError(
            f"dimension mismatch: global {wg.shape} vs {s.x_global.shape}, "
            f"local {wl.shape} vs {s.x_local.shape}"
        )


def predict_joint(wg: np.ndarray, wl: np.ndarray, s: Sample) -> float:
    """Joint prediction: wg . x_global + wl . x_local."""
    _check_dims(wg, wl, s)
    return float(wg @ s.x_global + wl @ s.x_local)


def loss(wg: np.ndarray, wl: np.ndarray, s: Sample) -> float:
    """Squared loss of the joint prediction: (y - wg.xg - wl.xl)^2."""
    r = s.y - predict_joint(wg, wl, s)
    return float(r * r)


def grad_global(wg: np.ndarray, wl: np.ndarray, s: Sample) -> np.ndarray:
    """Gradient of the squared loss w.r.t. the global block: 2(pred - y) xg."""
    _check_dims(wg, wl, s)
    pred = wg @ s.x_global + wl @ s.x_local
    return 2.0 * (pred - s.y) * s.x_global


def grad_local(wg: np.ndarray, wl: np.ndarray, s: Sample) -> np.ndarray:
    """Gradient of the squared loss w.r.t. the local block: 2(pred - y) xl."""
    _check_dims(wg, wl, s)
    pred = wg @ s.x_global + wl @ s.x_local
    return 2.0 * (pred - s.y) * s.x_local


def grad_global_from_message(wg: np.ndarray, m: ResidualMessage) -> np.ndarray:
    """Global-block gradient reconstructed from an uplink record alone.

    The residual (local prediction) substitutes for the local model, so
    this equals grad_global evaluated at the sending client's model pair.
    """
    pred = wg @ m.x_global + m.local_prediction
    return 2.0 * (pred - m.y) * m.x_global


_NON_FINITE = "cannot project a vector with a non-finite norm onto the ball"


def project_ball(v: np.ndarray, radius: float) -> np.ndarray:
    """Euclidean projection onto the ball of the given radius; a 2-D array
    is projected row by row.

    The scaled result is nudged down by ulps until its norm is truly
    <= radius, so projecting twice is bit-identical to projecting once.
    Rows inside the ball come back unchanged. A row whose norm is not
    finite (NaN or infinite entries, or a squared norm that overflows)
    raises InvariantError; the check rides on the norm screen, so inputs
    inside the ball pay nothing for it.
    """
    if radius <= 0:
        raise ConfigError(f"projection radius must be positive, got {radius}")
    if v.ndim == 1:  # one vector: scalar arithmetic is cheapest
        n = math.sqrt(v @ v)
        if n <= radius:  # NaN fails the screen
            return v
        if not math.isfinite(n):
            raise InvariantError(_NON_FINITE)
        f = radius / n
        w = v * f
        while math.sqrt(w @ w) > radius:
            f = np.nextafter(f, 0.0)
            w = v * f
        return w
    norms = np.sqrt(np.vecdot(v, v))
    if np.count_nonzero(norms <= radius) == norms.size:
        return v
    if np.count_nonzero(np.isfinite(norms)) != norms.size:
        raise InvariantError(_NON_FINITE)
    f = radius / np.maximum(norms, radius)  # 1 for rows inside the ball
    w = v * f[:, None]
    while np.count_nonzero(long := np.sqrt(np.vecdot(w, w)) > radius):
        f = np.where(long, np.nextafter(f, 0.0), f)
        w = v * f[:, None]
    return w


def suggested_step_size(
    global_comparator_sq_norm: float,
    local_comparator_sq_norm_sum: float,
    clients: int,
    rounds: int,
    sigma2: float,
    gamma: float,
    grad_bound: float,
    tau: int,
) -> float:
    """Step-size heuristic: min of a square-root and a cube-root branch.

    Arguments are the squared norm of the best global comparator, the sum
    of squared norms of the best local comparators, the client count P,
    horizon T, gradient-variance bound sigma^2, smoothness gamma, gradient
    norm bound G, and round-trip delay bound tau. Returns

        min( sqrt(W / (T P sigma^2)),  cbrt(W / (gamma P^3 G^2 tau^2 T)) )

    with W the summed comparator energy. Purely advisory; nothing in the
    learners estimates these constants from data.
    """
    vals = [
        global_comparator_sq_norm,
        local_comparator_sq_norm_sum,
        clients,
        rounds,
        sigma2,
        gamma,
        grad_bound,
        tau,
    ]
    if any(not np.isfinite(v) or v <= 0 for v in vals):
        raise ConfigError(f"suggested_step_size needs positive finite inputs, got {vals}")
    energy = global_comparator_sq_norm + local_comparator_sq_norm_sum
    sqrt_branch = np.sqrt(energy / (rounds * clients * sigma2))
    cbrt_branch = (energy / (gamma * clients**3 * grad_bound**2 * tau**2 * rounds)) ** (1.0 / 3.0)
    return float(min(sqrt_branch, cbrt_branch))
