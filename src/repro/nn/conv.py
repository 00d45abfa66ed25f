"""2-D convolution layer (im2col + GEMM).

Forward unfolds the input once into batch-major columns
(:func:`repro.nn.functional.im2col`, kept for backward in training mode
only) and multiplies them by the flattened weight in one GEMM over the
whole batch; one transposed copy turns the ``(out_c, N, H, W)`` product
into NCHW. Backward takes the weight gradient as the per-sample sum of
``cols_i @ g_i^T`` over strided slices of the same column buffer, and the
input gradient as kh*kw per-tap GEMMs of the output gradient (laid out
``(H, W, N, out_c)``) by that tap's weight slice, each added into a
channels-last ``(H, W, N, C)`` image through the tap's slices and
transposed into NCHW once at the end: no column-gradient buffer and no
``col2im``. Nothing larger than the weight is padded or routed through
``einsum``.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.nn import functional as F
from repro.nn import init
from repro.nn.module import Module
from repro.nn.parameter import Parameter


class Conv2d(Module):
    """2-D convolution over NCHW inputs.

    Weight shape is ``(out_channels, in_channels, kh, kw)``, matching
    PyTorch. For compression, the paper reshapes this 4-D gradient into an
    ``out_channels x (in_channels*kh*kw)`` matrix — the same flattening the
    im2col GEMM uses here.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        if kernel_size < 1 or stride < 1 or padding < 0:
            raise ValueError(
                f"bad conv geometry: kernel={kernel_size} stride={stride} "
                f"padding={padding}"
            )
        rng = rng if rng is not None else np.random.default_rng(0)
        shape = (out_channels, in_channels, kernel_size, kernel_size)
        self.weight = Parameter(init.kaiming_normal(shape, rng))
        self.bias = (
            Parameter(np.zeros(out_channels, dtype=np.float32)) if bias else None
        )
        self.stride = stride
        self.padding = padding
        self.kernel_size = kernel_size
        self._cache: Optional[Tuple[np.ndarray, Tuple[int, int, int, int]]] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4:
            raise ValueError(f"Conv2d expects NCHW input, got shape {x.shape}")
        if x.shape[1] != self.weight.data.shape[1]:
            raise ValueError(
                f"input channels {x.shape[1]} != weight in_channels "
                f"{self.weight.data.shape[1]}"
            )
        n = x.shape[0]
        kh = kw = self.kernel_size
        cols = F.im2col(x, (kh, kw), self.stride, self.padding)
        out_h = F.conv_output_size(x.shape[2], kh, self.stride, self.padding)
        out_w = F.conv_output_size(x.shape[3], kw, self.stride, self.padding)
        out_c = self.weight.data.shape[0]
        # One (out_c, F) @ (F, N*L) GEMM for the whole batch.
        out = self.weight.data.reshape(out_c, -1) @ cols
        if self.bias is not None:
            # In place: ``out`` is matmul's private output buffer.
            out += self.bias.data[:, None]
        if self.training:
            self._cache = (cols, x.shape)
        return out.reshape(out_c, n, out_h, out_w).transpose(1, 0, 2, 3).copy()

    def backward(
        self, grad_output: np.ndarray, need_input_grad: bool = True
    ) -> Optional[np.ndarray]:
        """Gradient w.r.t. the input (``None`` without ``need_input_grad``)."""
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        cols, input_shape = self._cache
        self._cache = None
        n, out_c, out_h, out_w = grad_output.shape
        grad_mat = grad_output.reshape(n, out_c, -1)

        if self.bias is not None:
            self.bias.accumulate_grad(grad_mat.sum(axis=(0, 2)))
        # One (F, L) @ (L, out_c) GEMM per sample, its columns a strided
        # slice of the batch-major buffer on the left (the bits of
        # g @ col.T), summed as they come and transposed once: no
        # (n, F, out_c) intermediate.
        samples = cols.reshape(cols.shape[0], n, -1)
        grad_w = sum(np.matmul(samples[:, i], g.T) for i, g in enumerate(grad_mat)).T
        del cols, samples
        self.weight.accumulate_grad(grad_w.reshape(self.weight.data.shape))
        if not need_input_grad:
            return None
        # Per tap: (H*W*N, out_c) @ (out_c, C) into one scratch, added into
        # the channels-last image where the tap reads the input.
        _, c, h, w = input_shape
        kh = kw = self.kernel_size
        _, row_taps = F._axis_taps(h, kh, self.stride, self.padding)
        _, col_taps = F._axis_taps(w, kw, self.stride, self.padding)
        rows = grad_output.transpose(2, 3, 0, 1).reshape(-1, out_c)
        taps = self.weight.data.transpose(2, 3, 0, 1).copy()
        dtype = np.result_type(rows, taps)
        image = np.zeros((h, w, n, c), dtype=dtype)
        tap = np.empty((out_h, out_w, n, c), dtype=dtype)
        flat_tap = tap.reshape(-1, c)
        for ki, (out_rows, in_rows) in enumerate(row_taps):
            for kj, (out_cols, in_cols) in enumerate(col_taps):
                np.matmul(rows, taps[ki, kj], out=flat_tap)
                image[in_rows, in_cols] += tap[out_rows, out_cols]
        return image.transpose(2, 3, 0, 1).copy()
