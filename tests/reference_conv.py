"""The convolution this repo shipped before batch-major columns, kept as a
bit-identity oracle for :class:`repro.nn.Conv2d`.

Sample-major columns ``(N, C*kh*kw, out_h*out_w)``, one ``(out_c, F) @ (F,
L)`` GEMM per sample in the forward, the weight gradient as the per-sample
sum of ``cols[i] @ g[i]^T`` transposed once, and the input gradient as the
column gradient ``w_mat^T @ g`` folded by a sample-major ``col2im``. It
lives under ``tests/`` only and has its own copies of the tap loops, so it
does not move when ``repro.nn.functional`` does; only ``_axis_taps`` (the
per-tap slice arithmetic, which both formulations share) is imported.
``tests/test_nn_kernels.py::TestBatchMajorConvolution`` requires the layer
to reproduce its float32 bytes on the benchmark's VGG layers.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.nn.functional import _axis_taps


def im2col(x: np.ndarray, kernel: Tuple[int, int], stride: int, padding: int) -> np.ndarray:
    """Sample-major patch columns ``(N, C*kh*kw, out_h*out_w)``."""
    n, c, h, w = x.shape
    kh, kw = kernel
    out_h, row_taps = _axis_taps(h, kh, stride, padding)
    out_w, col_taps = _axis_taps(w, kw, stride, padding)
    alloc = np.zeros if padding > 0 else np.empty
    cols = alloc((n, c, kh, kw, out_h, out_w), dtype=x.dtype)
    for ki, (out_rows, in_rows) in enumerate(row_taps):
        for kj, (out_cols, in_cols) in enumerate(col_taps):
            cols[:, :, ki, kj, out_rows, out_cols] = x[:, :, in_rows, in_cols]
    return cols.reshape(n, c * kh * kw, out_h * out_w)


def col2im(
    cols: np.ndarray,
    input_shape: Tuple[int, int, int, int],
    kernel: Tuple[int, int],
    stride: int,
    padding: int,
) -> np.ndarray:
    """Fold sample-major columns back to NCHW, tap for tap."""
    n, c, h, w = input_shape
    kh, kw = kernel
    out_h, row_taps = _axis_taps(h, kh, stride, padding)
    out_w, col_taps = _axis_taps(w, kw, stride, padding)
    cols6 = cols.reshape(n, c, kh, kw, out_h, out_w)
    image = np.zeros(input_shape, dtype=cols.dtype)
    for ki, (out_rows, in_rows) in enumerate(row_taps):
        for kj, (out_cols, in_cols) in enumerate(col_taps):
            image[:, :, in_rows, in_cols] += cols6[:, :, ki, kj, out_rows, out_cols]
    return image


def conv_forward(
    x: np.ndarray, weight: np.ndarray, bias: Optional[np.ndarray], stride: int, padding: int
) -> Tuple[np.ndarray, np.ndarray]:
    """``(output, columns)``: one GEMM per sample off the column buffer."""
    n = x.shape[0]
    out_c, _, kh, kw = weight.shape
    cols = im2col(x, (kh, kw), stride, padding)
    out_h = (x.shape[2] + 2 * padding - kh) // stride + 1
    out_w = (x.shape[3] + 2 * padding - kw) // stride + 1
    out = np.matmul(weight.reshape(out_c, -1), cols)
    if bias is not None:
        out += bias[None, :, None]
    return out.reshape(n, out_c, out_h, out_w), cols


def conv_backward(
    cols: np.ndarray,
    weight: np.ndarray,
    grad_output: np.ndarray,
    input_shape: Tuple[int, int, int, int],
    stride: int,
    padding: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(grad_input, grad_weight, grad_bias)`` of :func:`conv_forward`."""
    n, out_c = grad_output.shape[:2]
    grad_mat = grad_output.reshape(n, out_c, -1)
    w_mat = weight.reshape(out_c, -1)
    grad_bias = grad_mat.sum(axis=(0, 2))
    grad_w = sum(np.matmul(col, g.T) for g, col in zip(grad_mat, cols)).T
    grad_cols = np.matmul(w_mat.T, grad_mat)
    grad_input = col2im(grad_cols, input_shape, weight.shape[2:], stride, padding)
    return grad_input, grad_w.reshape(weight.shape), grad_bias
