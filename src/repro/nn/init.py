"""Weight initialization schemes (Kaiming).

Both return float32, the training path's precision (the paper's FP32):
the draws are float64 samples of ``rng`` rounded once, so a model cast to
float64 holds the same values it would with float32 storage.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np


def _fan_in_out(shape: Tuple[int, ...]) -> Tuple[int, int]:
    """Compute fan-in/fan-out for linear (out, in) or conv (out, in, kh, kw)."""
    if len(shape) < 2:
        raise ValueError(f"fan computation needs >= 2 dims, got shape {shape}")
    receptive = 1
    for dim in shape[2:]:
        receptive *= dim
    fan_in = shape[1] * receptive
    fan_out = shape[0] * receptive
    return fan_in, fan_out


def kaiming_normal(
    shape: Tuple[int, ...], rng: np.random.Generator, gain: float = math.sqrt(2.0)
) -> np.ndarray:
    """He-normal init: std = gain / sqrt(fan_in). Default gain is for ReLU."""
    fan_in, _ = _fan_in_out(shape)
    std = gain / math.sqrt(fan_in)
    return rng.normal(0.0, std, size=shape).astype(np.float32)


def kaiming_uniform(
    shape: Tuple[int, ...], rng: np.random.Generator, gain: float = math.sqrt(2.0)
) -> np.ndarray:
    """He-uniform init: bound = gain * sqrt(3 / fan_in)."""
    fan_in, _ = _fan_in_out(shape)
    bound = gain * math.sqrt(3.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(np.float32)
