"""Deterministic random-number generation helpers.

Every stochastic component in the library (weight init, data synthesis,
compressor initialization, worker-local sampling) draws from an explicit
``numpy.random.Generator`` rather than the global numpy state, so experiments
are reproducible bit-for-bit and workers can be given decorrelated streams.
"""

from __future__ import annotations

import numpy as np


def rank_rng(seed: int, rank: int) -> np.random.Generator:
    """Data-sampling stream of rank ``rank`` in a run seeded ``seed``.

    Child ``rank`` of the run's root :class:`numpy.random.SeedSequence`
    (``SeedSequence(seed).spawn(world)[rank]`` for any world that contains
    the rank), so the stream depends only on ``(seed, rank)``: a rank
    present from the start, a joiner and a respawned worker process all
    draw the same numbers, and children are decorrelated regardless of the
    numeric relationship between their ids.
    """
    if rank < 0:
        raise ValueError(f"rank must be >= 0, got {rank}")
    root = np.random.SeedSequence(seed)
    return np.random.default_rng(root.spawn(rank + 1)[rank])
