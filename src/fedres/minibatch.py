"""Mini-batch reduction: aggregate b consecutive rounds into one update.

A batched run consumes the horizon in T/b batch rounds. Within a batch the
learner holds one model pair (fetched once, stepped once on batch-mean
gradients) and every per-sample prediction in the batch uses that pair;
the recorded loss is the batch mean. Per-direction delays convert to
batch rounds as ceil(alpha/b) and ceil(beta/b).
"""

from __future__ import annotations

import numpy as np

from .core import HyperParams, Sample, grad_global, grad_local, loss
from .engine import run_fedres_sgd
from .errors import ConfigError
from .results import RunResult


def aggregate_loss(samples, wg, wl, batch_size: int | None = None) -> float:
    """Mean of the per-sample losses of one batch."""
    _check_batch(samples, batch_size)
    return float(np.mean([loss(wg, wl, s) for s in samples]))


def aggregate_grads(samples, wg, wl, batch_size: int | None = None):
    """Batch-mean (global gradient, local gradient)."""
    _check_batch(samples, batch_size)
    gg = np.mean(np.stack([grad_global(wg, wl, s) for s in samples]), axis=0)
    gl = np.mean(np.stack([grad_local(wg, wl, s) for s in samples]), axis=0)
    return gg, gl


def _check_batch(samples, batch_size):
    if len(samples) == 0:
        raise ConfigError("a batch must contain at least one sample")
    if batch_size is not None and len(samples) != batch_size:
        raise ConfigError(f"batch has {len(samples)} samples, expected {batch_size}")
    if not all(isinstance(s, Sample) for s in samples):
        raise ConfigError("batches are sequences of Sample")


def run_batched(dataset, delays, hyper: HyperParams, rounds: int, batch_size: int,
                seed: int, *, variant: str = "aligned",
                init_global=None, init_locals=None) -> RunResult:
    """Run the delayed-gradient learner once per batch of the given size."""
    return run_fedres_sgd(dataset, delays, hyper, rounds, seed, variant=variant,
                          batch_size=batch_size, init_global=init_global, init_locals=init_locals)
