"""Spatial pooling layers over NCHW inputs."""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.nn import functional as F
from repro.nn.module import Module


class MaxPool2d(Module):
    """Max pooling with square window.

    The k*k window positions become the leading axis of one array, the
    output is the maximum along it, and a boolean mask per position marks
    where it holds the window's *first* maximum in row-major order (what
    ``argmax`` picks), which is where backward sends the gradient. When the
    windows partition the input exactly (``stride == kernel_size``, no
    padding, height and width multiples of the kernel — every pooling layer
    of the bundled convnets) the positions are gathered by one transposed
    copy of the input and the gradient is written through k*k strided views;
    any other geometry (overlapping, padded or non-dividing windows) goes
    through :func:`repro.nn.functional.im2col` / ``col2im``. The choice is
    made per call from the layer's geometry and the input's shape.
    """

    def __init__(self, kernel_size: int, stride: Optional[int] = None, padding: int = 0):
        super().__init__()
        if kernel_size < 1:
            raise ValueError(f"kernel_size must be >= 1, got {kernel_size}")
        self.kernel_size = kernel_size
        self.stride = stride if stride is not None else kernel_size
        self.padding = padding
        self._cache: Optional[Tuple[np.ndarray, Tuple[int, ...]]] = None

    def _tiles(self, h: int, w: int) -> bool:
        """Whether the windows partition an ``h x w`` input exactly."""
        k = self.kernel_size
        return self.stride == k and self.padding == 0 and h % k == 0 and w % k == 0

    def forward(self, x: np.ndarray) -> np.ndarray:
        n, c, h, w = x.shape
        k = self.kernel_size
        out_h = F.conv_output_size(h, k, self.stride, self.padding)
        out_w = F.conv_output_size(w, k, self.stride, self.padding)
        # windows: (k*k, n, c, out_h, out_w), window position leading.
        if self._tiles(h, w):
            windows = (
                x.reshape(n, c, out_h, k, out_w, k)
                .transpose(3, 5, 0, 1, 2, 4)
                .reshape(k * k, n, c, out_h, out_w)
            )
        else:
            cols = F.im2col(x, (k, k), self.stride, self.padding)
            windows = cols.reshape(c, k * k, n, out_h, out_w).transpose(1, 2, 0, 3, 4)
        # Into a C-contiguous result: the general path's windows are a
        # transposed view, whose reduction numpy would lay out like it.
        out = windows.max(axis=0, out=np.empty((n, c, out_h, out_w), dtype=x.dtype))
        if self.training:
            # first[t] marks the windows whose first maximum is position t.
            first = windows == out
            taken = first[0].copy()
            for tap in range(1, k * k):
                first[tap] &= ~taken
                taken |= first[tap]
            self._cache = (first, x.shape)
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        first, input_shape = self._cache
        self._cache = None
        n, c, h, w = input_shape
        k = self.kernel_size
        if self._tiles(h, w):
            grad_input = np.empty(input_shape, dtype=grad_output.dtype)
            for tap in range(k * k):
                np.multiply(
                    grad_output,
                    first[tap],
                    out=grad_input[:, :, tap // k :: k, tap % k :: k],
                )
            return grad_input
        grad_cols = (first * grad_output).transpose(2, 0, 1, 3, 4)
        return F.col2im(
            grad_cols.reshape(c * k * k, -1),
            input_shape,
            (k, k),
            self.stride,
            self.padding,
        )


class AvgPool2d(Module):
    """Average pooling with square window."""

    def __init__(self, kernel_size: int, stride: Optional[int] = None, padding: int = 0):
        super().__init__()
        if kernel_size < 1:
            raise ValueError(f"kernel_size must be >= 1, got {kernel_size}")
        self.kernel_size = kernel_size
        self.stride = stride if stride is not None else kernel_size
        self.padding = padding
        self._input_shape: Optional[Tuple[int, ...]] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        n, c, h, w = x.shape
        k = self.kernel_size
        cols = F.im2col(x, (k, k), self.stride, self.padding)
        out_h = F.conv_output_size(h, k, self.stride, self.padding)
        out_w = F.conv_output_size(w, k, self.stride, self.padding)
        out = cols.reshape(c, k * k, n, out_h, out_w).mean(axis=1)
        if self.training:
            self._input_shape = x.shape
        return out.transpose(1, 0, 2, 3).copy()

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._input_shape is None:
            raise RuntimeError("backward called before forward")
        c = self._input_shape[1]
        k = self.kernel_size
        flat_grad = grad_output.transpose(1, 0, 2, 3).reshape(c, 1, -1) / (k * k)
        grad_cols = np.broadcast_to(flat_grad, (c, k * k, flat_grad.shape[2]))
        grad_input = F.col2im(
            np.ascontiguousarray(grad_cols),
            self._input_shape,
            (k, k),
            self.stride,
            self.padding,
        )
        self._input_shape = None
        return grad_input


class GlobalAvgPool2d(Module):
    """Average over all spatial positions: NCHW -> NC."""

    def __init__(self) -> None:
        super().__init__()
        self._input_shape: Optional[Tuple[int, ...]] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4:
            raise ValueError(f"expected NCHW input, got shape {x.shape}")
        self._input_shape = x.shape
        return x.mean(axis=(2, 3))

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._input_shape is None:
            raise RuntimeError("backward called before forward")
        n, c, h, w = self._input_shape
        grad_input = np.broadcast_to(
            grad_output[:, :, None, None] / (h * w), self._input_shape
        ).copy()
        self._input_shape = None
        return grad_input
