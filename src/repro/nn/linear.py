"""Fully-connected layer."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn import init
from repro.nn.module import Module
from repro.nn.parameter import Parameter


class Linear(Module):
    """Affine map ``y = x W^T + b`` with ``W`` of shape (out, in).

    The weight layout matches ``torch.nn.Linear``, which matters for the
    compression reshaping rules: Power-SGD treats a Linear weight as an
    ``out x in`` gradient matrix directly.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        if in_features < 1 or out_features < 1:
            raise ValueError(
                f"features must be >= 1, got in={in_features}, out={out_features}"
            )
        rng = rng if rng is not None else np.random.default_rng(0)
        self.weight = Parameter(init.kaiming_uniform((out_features, in_features), rng, gain=1.0))
        self.bias = (
            Parameter(np.zeros(out_features, dtype=np.float32)) if bias else None
        )
        self._cache_input: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.shape[-1] != self.weight.data.shape[1]:
            raise ValueError(
                f"input last dim {x.shape[-1]} != in_features "
                f"{self.weight.data.shape[1]}"
            )
        if self.training:
            self._cache_input = x
        # The weight is BLAS's row-major left operand: faster for a thin
        # batch, the same float32 bits (TestWeightIsTheLeftOperand pins
        # them). The output is C-contiguous because the next layer's cached
        # input and ``blocked_matmul`` rely on those strides.
        rows = x.reshape(-1, x.shape[-1])
        out = self.weight.data @ rows.T
        if self.bias is not None:
            out += self.bias.data[:, None]  # matmul's own output: in place
        return np.ascontiguousarray(out.T).reshape(x.shape[:-1] + (out.shape[0],))

    def backward(
        self, grad_output: np.ndarray, need_input_grad: bool = True
    ) -> Optional[np.ndarray]:
        """Gradient w.r.t. the input (``None`` without ``need_input_grad``)."""
        if self._cache_input is None:
            raise RuntimeError("backward called before forward")
        x = self._cache_input
        # Collapse any leading batch dims for the weight gradient.
        flat_x = x.reshape(-1, x.shape[-1])
        flat_grad = grad_output.reshape(-1, grad_output.shape[-1])
        grad_input = grad_output @ self.weight.data if need_input_grad else None
        if self.bias is not None:
            self.bias.accumulate_grad(flat_grad.sum(axis=0))
        self.weight.accumulate_product(flat_grad.T, flat_x)
        self._cache_input = None
        return grad_input
