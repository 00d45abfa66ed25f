"""Sign-SGD compression with majority vote [Bernstein et al., 2018].

Each worker transmits only the signs of its (error-corrected) gradient,
packed to 1 bit per element (32x ratio); its float scale, which decoding
needs, is not on the trainer's wire (see :mod:`repro.compression.wire`).
Signs are not additive — the sum of two +1s overflows the 1-bit alphabet —
so aggregation uses all-gather followed by an element-wise **majority
vote**: the aggregated update direction is ``sign(sum_w sign(g_w))``.

Error feedback (EF-SignSGD, Karimireddy et al. [30/42]) with an L1-mean scale
makes the method convergent in practice: the compressed representative of
``x`` is ``mean(|x|) * sign(x)`` and the residual is fed back next step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np


@dataclass
class SignPayload:
    """Wire format of one worker's compressed tensor.

    Attributes:
        packed_bits: ``np.packbits`` of the sign bits (1 = non-negative).
        scale: L1-mean magnitude used to rescale the unit signs.
        num_elements: original element count (packing pads to 8).
    """

    packed_bits: np.ndarray
    scale: float
    num_elements: int


class SignCompressor:
    """Sign-SGD compressor with error feedback (the per-vector reference).

    Stateless: with error feedback the residual lives in the vector handed
    to :meth:`compress`, as it does in the trainer's arena slab, where
    :class:`~repro.optim.aggregators.SignSGDAggregator` runs the same
    arithmetic bucket by bucket.
    """

    def __init__(self, use_error_feedback: bool = True):
        self.use_error_feedback = use_error_feedback

    def compress(self, vector: np.ndarray) -> SignPayload:
        """Compress ``vector`` to sign bits and one L1-mean scale.

        With error feedback ``vector`` is the caller's accumulator (the
        residual plus this step's gradient; writable, C-contiguous float64)
        and ``scale * sign`` is subtracted from it, leaving the next
        residual. Without error feedback it is only read.
        """
        flat = vector.reshape(-1)
        if not self.use_error_feedback:
            flat = flat.astype(np.float64)
        scale = float(np.abs(flat).mean()) if flat.size else 0.0
        bits = (flat >= 0).astype(np.uint8)
        if self.use_error_feedback:
            flat -= scale * np.where(bits == 1, 1.0, -1.0)
        return SignPayload(
            packed_bits=np.packbits(bits), scale=scale, num_elements=flat.size
        )

    @staticmethod
    def unpack_signs(payload: SignPayload) -> np.ndarray:
        """Recover the +/-1 sign vector from a payload."""
        bits = np.unpackbits(payload.packed_bits)[: payload.num_elements]
        return np.where(bits == 1, 1.0, -1.0)


def majority_vote_aggregate(
    payloads: List[SignPayload], shape: Tuple[int, ...]
) -> np.ndarray:
    """Aggregate gathered sign payloads by element-wise majority vote.

    Returns the dense aggregated gradient estimate: the majority sign scaled
    by the mean of the workers' scales (ties, possible with an even worker
    count, resolve to +1 via ``sign(0) -> +1`` like the compressor's own
    non-negative convention).
    """
    if not payloads:
        raise ValueError("need at least one payload")
    num_elements = payloads[0].num_elements
    vote = np.zeros(num_elements)
    scales = np.array([payload.scale for payload in payloads])
    for payload in payloads:
        if payload.num_elements != num_elements:
            raise ValueError("payload sizes disagree across workers")
        vote += SignCompressor.unpack_signs(payload)
    majority = np.where(vote >= 0, 1.0, -1.0)
    mean_scale = float(scales.mean())
    return (mean_scale * majority).reshape(shape)
