"""TernGrad ternary quantization (Wen et al., NeurIPS 2017 — paper ref [15]).

Each gradient element is quantized to ``{-s, 0, +s}`` with ``s = max|g|``
via stochastic rounding: ``P[|q_i| = s] = |g_i| / s``. The quantizer is
*unbiased* (``E[q] = g``), so unlike Sign-SGD/Top-k it needs no error
feedback for convergence; the cost is higher variance. Payload is 2 bits
per element plus one scale — a 16x ratio.

Aggregation uses all-gather like the other quantizers (ternary values from
different workers with different scales are not additive).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np


@dataclass
class TernPayload:
    """Wire format: ternary codes packed 4-per-byte, plus the scale."""

    packed: np.ndarray  # uint8, 4 ternary values per byte (2 bits each)
    scale: float
    num_elements: int
    dtype: np.dtype  # of the quantized tensor, which decompress rebuilds


def _pack_ternary(values: np.ndarray) -> np.ndarray:
    """Pack {-1, 0, +1} (as {0, 1, 2} after +1) into 2 bits per element."""
    codes = (values + 1).astype(np.uint8)  # {0, 1, 2}
    pad = (-codes.size) % 4
    if pad:
        codes = np.concatenate([codes, np.zeros(pad, dtype=np.uint8)])
    quads = codes.reshape(-1, 4)
    return (
        quads[:, 0] | (quads[:, 1] << 2) | (quads[:, 2] << 4) | (quads[:, 3] << 6)
    ).astype(np.uint8)


def _unpack_ternary(
    packed: np.ndarray, num_elements: int, dtype: np.dtype
) -> np.ndarray:
    """Inverse of :func:`_pack_ternary`; returns {-1, 0, +1} in ``dtype``."""
    quads = np.empty((packed.size, 4), dtype=np.uint8)
    quads[:, 0] = packed & 0x3
    quads[:, 1] = (packed >> 2) & 0x3
    quads[:, 2] = (packed >> 4) & 0x3
    quads[:, 3] = (packed >> 6) & 0x3
    ternary = quads.reshape(-1)[:num_elements].astype(dtype)
    ternary -= 1.0
    return ternary


class TernGradCompressor:
    """Unbiased ternary quantizer.

    Args:
        rng: stochastic-rounding stream (per-worker independent streams
            are fine — the quantizer is unbiased).
        clip_sigma: optional gradient clipping at ``clip_sigma * std``
            before quantization (TernGrad's layer-wise clipping trick;
            0 disables). Clipping biases the estimate slightly but shrinks
            the scale, cutting variance.
    """

    def __init__(self, rng: Optional[np.random.Generator] = None,
                 clip_sigma: float = 0.0):
        if clip_sigma < 0:
            raise ValueError(f"clip_sigma must be >= 0, got {clip_sigma}")
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.clip_sigma = clip_sigma

    def compress(self, grad: np.ndarray) -> TernPayload:
        """Quantize to ternary with stochastic rounding (arithmetic and
        draws in ``grad``'s dtype)."""
        flat = grad.reshape(-1)
        if self.clip_sigma > 0 and flat.size > 1:
            bound = self.clip_sigma * float(flat.std())
            if bound > 0:
                flat = np.clip(flat, -bound, bound)
        scale = float(np.abs(flat).max()) if flat.size else 0.0
        if scale == 0.0:
            ternary = np.zeros(flat.size, dtype=np.int8)
        else:
            prob = np.abs(flat) / scale
            keep = self.rng.random(flat.size, dtype=flat.dtype) < prob
            ternary = (np.sign(flat) * keep).astype(np.int8)
        return TernPayload(
            packed=_pack_ternary(ternary), scale=scale, num_elements=flat.size,
            dtype=flat.dtype,
        )

    @staticmethod
    def decompress(payload: TernPayload, shape: Tuple[int, ...]) -> np.ndarray:
        """Reconstruct the dense {-s, 0, +s} tensor, in the payload's dtype."""
        ternary = _unpack_ternary(
            payload.packed, payload.num_elements, payload.dtype
        )
        ternary *= payload.scale
        return ternary.reshape(shape)
