"""Rules for viewing parameter gradients as matrices for low-rank methods.

Following §IV-C of the paper: "The vector-shaped parameters (e.g., biases)
require no compression, while other parameters are reshaped into matrices
for compression."

Concretely:

- 0-D / 1-D gradients (biases, norm scales) are never compressed;
- 2-D gradients (Linear / Embedding weights) are used as-is, ``n x m``;
- k-D gradients with k > 2 (Conv weights ``(out, in, kh, kw)``) are reshaped
  to ``out x (in*kh*kw)`` — the same flattening the im2col GEMM uses.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def should_compress(shape: Tuple[int, ...]) -> bool:
    """Whether a parameter of this shape is matrix-shaped: the first of the
    two tests :func:`repro.compression.wire.low_rank_split` applies, the
    second being that factoring shrinks it."""
    return len(shape) >= 2


def matrix_view_shape(shape: Tuple[int, ...]) -> Tuple[int, int]:
    """The (n, m) matrix shape a gradient of ``shape`` is compressed as."""
    if len(shape) < 2:
        raise ValueError(f"cannot view shape {shape} as a matrix")
    n = shape[0]
    m = 1
    for dim in shape[1:]:
        m *= dim
    return n, m


def grad_to_matrix(grad: np.ndarray) -> np.ndarray:
    """Reshape a compressible gradient into its 2-D matrix view."""
    n, m = matrix_view_shape(grad.shape)
    return grad.reshape(n, m)
