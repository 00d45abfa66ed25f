"""Random-k sparsification with a shared selection seed.

Background method from §II-B.2 of the paper. When all workers derive the
same random coordinate set per step (from a shared seed and step counter),
their sparse payloads align coordinate-by-coordinate — so unlike Top-k the
compressed tensors *are* additive, and can be aggregated with ring
all-reduce over just the selected values. This makes Random-k a useful
ablation point between Top-k (better selection, all-gather only) and
ACP-SGD (additive by construction).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.compression.wire import select_count


@dataclass
class RandomKPayload:
    """Values at the shared random coordinates for one step."""

    values: np.ndarray
    indices: np.ndarray
    num_elements: int


class RandomKCompressor:
    """Per-worker Random-k compressor with error feedback.

    All workers must construct with the same ``seed`` so that
    ``indices_for_step`` agrees everywhere. With error feedback the residual
    lives in the vector handed to :meth:`compress` (in the trainer, the
    rank's arena slab).
    """

    def __init__(
        self, ratio: float = 0.01, seed: int = 0, use_error_feedback: bool = True
    ):
        if not 0.0 < ratio <= 1.0:
            raise ValueError(f"ratio must be in (0, 1], got {ratio}")
        self.ratio = ratio
        self.seed = seed
        self.use_error_feedback = use_error_feedback

    def indices_for_step(self, name: str, num_elements: int, step: int) -> np.ndarray:
        """Deterministic shared coordinate set for (tensor, step)."""
        k = select_count(self.ratio, num_elements)
        # Seed mixes the tensor name so different tensors decorrelate. Use a
        # stable hash (crc32), not Python's salted hash(), so every worker —
        # and every process run — derives identical coordinates.
        mix = zlib.crc32(f"{self.seed}:{name}:{step}".encode()) & 0x7FFFFFFF
        rng = np.random.default_rng(mix)
        return rng.choice(num_elements, size=min(k, num_elements), replace=False)

    def compress(self, name: str, vector: np.ndarray, step: int) -> RandomKPayload:
        """Take the values at the shared coordinates for ``step``.

        With error feedback ``vector`` is the caller's accumulator (the
        residual plus this step's gradient; writable, C-contiguous): the
        sent entries are zeroed in it, leaving the next residual. Without
        error feedback it is only read. The values keep its dtype.
        """
        flat = vector.reshape(-1)
        idx = self.indices_for_step(name, flat.size, step)
        values = flat[idx]
        if self.use_error_feedback:
            flat[idx] = 0.0
        return RandomKPayload(values=values, indices=idx, num_elements=flat.size)

    @staticmethod
    def decompress(payload: RandomKPayload, shape: Tuple[int, ...]) -> np.ndarray:
        """Scatter a payload back to a dense tensor."""
        dense = np.zeros(payload.num_elements, payload.values.dtype)
        dense[payload.indices] = payload.values
        return dense.reshape(shape)
