"""Named RNG substreams.

Every stochastic choice in a rollout (partitioning, feature split, stream
order, exploration, ...) draws from its own named substream of the rollout
seed, so adding a new consumer never perturbs existing ones and paired
comparisons across algorithms stay paired.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .errors import ConfigError


def substream(seed: int, name: str) -> np.random.Generator:
    """Generator for substream `name` of `seed`, stable across platforms."""
    if int(seed) < 0:
        raise ConfigError(f"seeds must be non-negative, got {seed}")
    digest = hashlib.sha256(name.encode("utf-8")).digest()[:8]
    tag = int.from_bytes(digest, "little")
    return np.random.default_rng(np.random.SeedSequence([int(seed), tag]))
