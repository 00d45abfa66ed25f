"""QSGD stochastic quantization [Alistarh et al., 2017].

Background method from §II-B.1 of the paper, implemented as an extension.
Each element is quantized to one of ``s`` levels of its tensor's L2 norm via
randomized rounding, which makes the compressor *unbiased*
(``E[q(x)] = x``), unlike Sign-SGD / Top-k / Power-SGD.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np


def _level_dtype(num_levels: int) -> np.dtype:
    """A byte per level up to 255 levels, else four."""
    return np.dtype(np.uint8 if num_levels <= 255 else np.uint32)


@dataclass
class QSGDPayload:
    """Wire format: the levels (:func:`_level_dtype`), then one packed
    sign bit per element (1 = non-negative); the tensor norm beside them."""

    norm: float
    packed: np.ndarray  # uint8
    num_levels: int
    num_elements: int
    dtype: np.dtype  # of the quantized tensor, which decompress rebuilds

    @property
    def levels(self) -> np.ndarray:
        """The integer levels in ``[0, s]``, a view of the wire."""
        dtype = _level_dtype(self.num_levels)
        return self.packed[: self.num_elements * dtype.itemsize].view(dtype)


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
        levels = np.zeros(flat.size, _level_dtype(self.num_levels))
        if norm != 0.0:
            scaled = np.abs(flat) / norm * self.num_levels
            floor = np.floor(scaled)
            prob_up = scaled - floor
            levels[:] = floor + (self.rng.random(flat.size, dtype=flat.dtype) < prob_up)
        return QSGDPayload(
            norm=norm,
            packed=np.concatenate([levels.view(np.uint8), np.packbits(flat >= 0)]),
            num_levels=self.num_levels,
            num_elements=flat.size,
            dtype=flat.dtype,
        )

    @staticmethod
    def decompress(payload: QSGDPayload, shape: Tuple[int, ...]) -> np.ndarray:
        """Reconstruct the dense (dequantized) tensor, in the payload's dtype."""
        if payload.norm == 0.0:
            return np.zeros(shape, payload.dtype)
        levels = payload.levels
        signs = np.unpackbits(payload.packed[levels.nbytes :], count=payload.num_elements)
        dense = signs.astype(payload.dtype)
        dense *= 2.0
        dense -= 1.0
        dense *= payload.norm
        dense *= levels
        dense /= payload.num_levels
        return dense.reshape(shape)
