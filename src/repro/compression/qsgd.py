"""QSGD stochastic quantization [Alistarh et al., 2017].

Background method from §II-B.1 of the paper, implemented as an extension.
Each element is quantized to one of ``s`` levels of its tensor's L2 norm via
randomized rounding, which makes the compressor *unbiased*
(``E[q(x)] = x``), unlike Sign-SGD / Top-k / Power-SGD.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np


@dataclass
class QSGDPayload:
    """Wire format: tensor norm, signs, and integer levels."""

    norm: float
    signs: np.ndarray  # int8 in {-1, 0, +1}
    levels: np.ndarray  # uint integers in [0, s]
    num_levels: int
    num_elements: int
    dtype: np.dtype  # of the quantized tensor, which decompress rebuilds

    @property
    def nbytes(self) -> int:
        """Bytes on the wire with bit-packing: sign bit + ceil(log2(s+1)) bits."""
        bits_per_level = max(1, math.ceil(math.log2(self.num_levels + 1)))
        payload_bits = self.num_elements * (1 + bits_per_level)
        return payload_bits // 8 + 4  # + float32 norm


class QSGDCompressor:
    """Stochastic ``s``-level quantizer.

    Args:
        num_levels: quantization levels ``s`` (e.g. 255 for 8-bit QSGD).
        rng: randomized-rounding stream; per-worker independent streams are
            fine because the compressor is unbiased.
    """

    def __init__(self, num_levels: int = 255, rng: Optional[np.random.Generator] = None):
        if num_levels < 1:
            raise ValueError(f"num_levels must be >= 1, got {num_levels}")
        self.num_levels = num_levels
        self.rng = rng if rng is not None else np.random.default_rng(0)

    def compress(self, grad: np.ndarray) -> QSGDPayload:
        """Quantize ``grad`` to ``num_levels`` stochastic levels of its norm
        (arithmetic and rounding draws in ``grad``'s dtype)."""
        flat = grad.reshape(-1)
        norm = float(np.linalg.norm(flat))
        if norm == 0.0:
            return QSGDPayload(
                norm=0.0,
                signs=np.zeros(flat.size, dtype=np.int8),
                levels=np.zeros(flat.size, dtype=np.uint32),
                num_levels=self.num_levels,
                num_elements=flat.size,
                dtype=flat.dtype,
            )
        scaled = np.abs(flat) / norm * self.num_levels
        floor = np.floor(scaled)
        prob_up = scaled - floor
        levels = floor + (self.rng.random(flat.size, dtype=flat.dtype) < prob_up)
        return QSGDPayload(
            norm=norm,
            signs=np.sign(flat).astype(np.int8),
            levels=levels.astype(np.uint32),
            num_levels=self.num_levels,
            num_elements=flat.size,
            dtype=flat.dtype,
        )

    @staticmethod
    def decompress(payload: QSGDPayload, shape: Tuple[int, ...]) -> np.ndarray:
        """Reconstruct the dense (dequantized) tensor, in the payload's dtype."""
        if payload.norm == 0.0:
            return np.zeros(shape, payload.dtype)
        dense = payload.signs.astype(payload.dtype)
        dense *= payload.norm
        dense *= payload.levels
        dense /= payload.num_levels
        return dense.reshape(shape)
