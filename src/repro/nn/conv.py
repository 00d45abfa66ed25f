"""2-D convolution layer (im2col + GEMM).

Forward unfolds the input once (:func:`repro.nn.functional.im2col`, kept
for backward in training mode only) and multiplies every sample's columns
by the flattened weight with one broadcast ``np.matmul``. Backward is two
more plain GEMM families on the same operands as they lie in memory — the
weight gradient with the columns on the left and a transposed view of the
output gradient on the right, the column gradient from a transposed view of
the weight — and a ``col2im`` fold. Nothing larger than the weight is
padded, transposed-and-copied or routed through ``einsum``.
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
        w_mat = self.weight.data.reshape(self.weight.data.shape[0], -1)
        # One (out_c, F) @ (F, L) GEMM per sample, straight off the column
        # buffer: matmul broadcasts w_mat over the batch without copying.
        out = np.matmul(w_mat, cols)
        if self.bias is not None:
            # In place: ``out`` is matmul's private output buffer.
            out += self.bias.data[None, :, None]
        if self.training:
            self._cache = (cols, x.shape)
        return out.reshape(n, -1, out_h, out_w)

    def backward(
        self, grad_output: np.ndarray, need_input_grad: bool = True
    ) -> Optional[np.ndarray]:
        """Gradient w.r.t. the input (``None`` without ``need_input_grad``)."""
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        cols, input_shape = self._cache
        self._cache = None
        n, out_c = grad_output.shape[:2]
        grad_mat = grad_output.reshape(n, out_c, -1)
        w_mat = self.weight.data.reshape(out_c, -1)

        if self.bias is not None:
            self.bias.accumulate_grad(grad_mat.sum(axis=(0, 2)))
        # One (F, L) @ (L, out_c) GEMM per sample, the columns as they lie on
        # the left (the bits of g @ col.T), summed as they come and
        # transposed once: no (n, F, out_c) intermediate.
        grad_w = sum(np.matmul(col, g.T) for g, col in zip(grad_mat, cols)).T
        del cols
        self.weight.accumulate_grad(grad_w.reshape(self.weight.data.shape))
        if not need_input_grad:
            return None
        grad_cols = np.matmul(w_mat.T, grad_mat)
        return F.col2im(
            grad_cols,
            input_shape,
            (self.kernel_size, self.kernel_size),
            self.stride,
            self.padding,
        )
