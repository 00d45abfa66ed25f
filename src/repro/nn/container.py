"""Module containers."""

from __future__ import annotations

from typing import Iterator, Optional

import numpy as np

from repro.nn.conv import Conv2d
from repro.nn.linear import Linear
from repro.nn.module import Module


class Sequential(Module):
    """Chain of modules applied in order.

    Backward runs in reverse order, so parameter gradient hooks fire from
    the last layer backwards — the readiness order WFBP schedules around.
    """

    def __init__(self, *modules: Module):
        super().__init__()
        self.layers = list(modules)

    def append(self, module: Module) -> "Sequential":
        """Add a module to the end of the chain."""
        self.layers.append(module)
        return self

    def __len__(self) -> int:
        return len(self.layers)

    def __getitem__(self, idx: int) -> Module:
        return self.layers[idx]

    def __iter__(self) -> Iterator[Module]:
        return iter(self.layers)

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer(x)
        return x

    def backward(
        self, grad_output: np.ndarray, need_input_grad: bool = True
    ) -> Optional[np.ndarray]:
        """Gradient w.r.t. the chain's input.

        A caller that discards it (a training step) passes
        ``need_input_grad=False``: a first ``Linear`` / ``Conv2d`` then skips
        that product and ``None`` comes back. Parameter gradients are
        computed either way.
        """
        if not self.layers:
            return grad_output
        for layer in reversed(self.layers[1:]):
            grad_output = layer.backward(grad_output)
        first = self.layers[0]
        if need_input_grad or not isinstance(first, (Linear, Conv2d)):
            return first.backward(grad_output)
        return first.backward(grad_output, need_input_grad=False)
