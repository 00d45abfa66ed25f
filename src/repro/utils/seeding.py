"""Deterministic random-number generation helpers.

Every stochastic component in the library (weight init, data synthesis,
compressor initialization, worker-local sampling) draws from an explicit
``numpy.random.Generator`` rather than the global numpy state, so experiments
are reproducible bit-for-bit and workers can be given decorrelated streams.
"""

from __future__ import annotations

from typing import List

import numpy as np


def spawn_rngs(seed: int, count: int) -> List[np.random.Generator]:
    """Return ``count`` statistically independent generators.

    Uses ``SeedSequence.spawn`` so that the child streams are decorrelated
    regardless of the numeric relationship between their indices. Used to give
    each simulated worker its own data-shard sampling stream.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    root = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in root.spawn(count)]
