"""Low-level array ops shared by layers: im2col/col2im, softmax, einsum paths.

``im2col`` / ``col2im`` move data once per kernel tap between the NCHW
array and the batch-major ``(C*kh*kw, N*L)`` column buffer (one
strided-slice copy, respectively one strided-slice add, per tap; zero
padding is implicit). The conv and pooling layers do their arithmetic on
that buffer directly; ``col2im`` serves pooling only.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

# Contraction paths memoized by (subscripts, operand shapes). With
# ``optimize=True`` numpy re-runs the greedy path search on every call,
# which shows up in the hot-path profile for the per-step attention
# einsums; the operand shapes repeat every step, so the path is computed
# once. The path only fixes the contraction ORDER — the arithmetic per
# contraction is unchanged, so results are bit-identical to optimize=True.
_EINSUM_PATHS: Dict[tuple, list] = {}


def cached_einsum(subscripts: str, *operands: np.ndarray) -> np.ndarray:
    """``np.einsum(..., optimize=True)`` with a memoized contraction path."""
    key = (subscripts, tuple(op.shape for op in operands))
    path = _EINSUM_PATHS.get(key)
    if path is None:
        path = np.einsum_path(subscripts, *operands, optimize="greedy")[0]
        _EINSUM_PATHS[key] = path
    return np.einsum(subscripts, *operands, optimize=path)


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution/pooling along one axis."""
    out = (size + 2 * padding - kernel) // stride + 1
    if out < 1:
        raise ValueError(
            f"invalid conv geometry: size={size} kernel={kernel} "
            f"stride={stride} padding={padding}"
        )
    return out


def _axis_taps(
    size: int, kernel: int, stride: int, padding: int
) -> Tuple[int, List[Tuple[slice, slice]]]:
    """Output size along one axis and, per kernel tap, ``(output slice, input slice)``.

    Output positions in the first slice read the (unpadded) input at the
    second, a strided slice of equal length; every other output position of
    that tap reads padding.
    """
    out = conv_output_size(size, kernel, stride, padding)
    taps = []
    for tap in range(kernel):
        lo = min(out, max(0, -((tap - padding) // stride)))
        hi = max(lo, min(out, (size - 1 - tap + padding) // stride + 1))
        first = lo * stride + tap - padding
        taps.append((slice(lo, hi), slice(first, first + (hi - lo) * stride, stride)))
    return out, taps


def im2col(
    x: np.ndarray, kernel: Tuple[int, int], stride: int, padding: int
) -> np.ndarray:
    """Unfold NCHW input into batch-major ``(C*kh*kw, N*out_h*out_w)`` columns.

    Convolution then becomes one GEMM over the whole batch — the same
    lowering cuDNN uses, which keeps the numpy convnets fast enough to
    actually train. Column ``i*L + p`` holds sample ``i``'s patch at output
    position ``p`` (``L = out_h*out_w``), so ``cols.reshape(F, N, L)[:, i]``
    is sample ``i``'s ``(F, L)`` columns as a strided slice. The columns are
    written once: each of the kh*kw kernel taps is one strided slice of
    ``x`` copied into its plane of the column buffer, and padding is the
    part of a plane no slice reaches (the input is never padded).
    """
    n, c, h, w = x.shape
    kh, kw = kernel
    out_h, row_taps = _axis_taps(h, kh, stride, padding)
    out_w, col_taps = _axis_taps(w, kw, stride, padding)
    alloc = np.zeros if padding > 0 else np.empty
    cols = alloc((c, kh, kw, n, out_h, out_w), dtype=x.dtype)
    channels_first = x.transpose(1, 0, 2, 3)
    for ki, (out_rows, in_rows) in enumerate(row_taps):
        for kj, (out_cols, in_cols) in enumerate(col_taps):
            cols[:, ki, kj, :, out_rows, out_cols] = channels_first[:, :, in_rows, in_cols]
    return cols.reshape(c * kh * kw, n * out_h * out_w)


def col2im(
    cols: np.ndarray,
    input_shape: Tuple[int, int, int, int],
    kernel: Tuple[int, int],
    stride: int,
    padding: int,
) -> np.ndarray:
    """Fold batch-major patch columns back to NCHW, summing overlapping windows.

    Adjoint of :func:`im2col`, tap for tap: what a tap read from padding is
    dropped, so the fold accumulates straight into the (unpadded) result.
    Used for the pooling input gradients (``Conv2d`` folds its own,
    channels-last, without a column-gradient buffer).
    """
    n, c, h, w = input_shape
    kh, kw = kernel
    out_h, row_taps = _axis_taps(h, kh, stride, padding)
    out_w, col_taps = _axis_taps(w, kw, stride, padding)
    cols6 = cols.reshape(c, kh, kw, n, out_h, out_w)
    image = np.zeros(input_shape, dtype=cols.dtype)
    channels_first = image.transpose(1, 0, 2, 3)
    for ki, (out_rows, in_rows) in enumerate(row_taps):
        for kj, (out_cols, in_cols) in enumerate(col_taps):
            channels_first[:, :, in_rows, in_cols] += cols6[:, ki, kj, :, out_rows, out_cols]
    return image


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax."""
    shifted = logits - logits.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=axis, keepdims=True)


def log_softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable log-softmax."""
    shifted = logits - logits.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
