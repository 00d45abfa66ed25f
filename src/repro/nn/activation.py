"""Elementwise activation layers."""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.nn.module import Module


class ReLU(Module):
    """Rectified linear unit, ``max(x, 0)``.

    Non-finite inputs are not hidden: NaN stays NaN (so a diverged
    activation still reaches the trainer's non-finite-loss check),
    ``-inf`` maps to 0 and ``+inf`` to ``+inf``; for finite input the
    result equals ``where(x > 0, x, 0)`` (the sign of a zero may differ).
    Backward multiplies by the ``x > 0`` mask, which passes exactly 0
    wherever the forward input was <= 0 (or NaN) for finite ``grad_output``.
    """

    def __init__(self) -> None:
        super().__init__()
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0
        return np.maximum(x, 0.0)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        grad_input = grad_output * self._mask
        self._mask = None
        return grad_input


class GELU(Module):
    """Gaussian error linear unit (tanh approximation, as in BERT)."""

    _C = math.sqrt(2.0 / math.pi)

    def __init__(self) -> None:
        super().__init__()
        self._x: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x
        inner = self._C * (x + 0.044715 * x**3)
        return 0.5 * x * (1.0 + np.tanh(inner))

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise RuntimeError("backward called before forward")
        x = self._x
        inner = self._C * (x + 0.044715 * x**3)
        tanh_inner = np.tanh(inner)
        sech2 = 1.0 - tanh_inner**2
        d_inner = self._C * (1.0 + 3 * 0.044715 * x**2)
        grad = 0.5 * (1.0 + tanh_inner) + 0.5 * x * sech2 * d_inner
        self._x = None
        return grad_output * grad
