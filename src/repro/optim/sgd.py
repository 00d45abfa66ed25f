"""SGD with momentum and weight decay."""

from __future__ import annotations

from collections.abc import Mapping
from typing import Dict, Optional, Tuple

import numpy as np

from repro.nn.module import Module
from repro.optim.decoded import DecodedAggregate, leading_rows, row_blocks


class SGD:
    """Heavy-ball SGD: ``v <- mu v + (g + wd * w)``, ``w <- w - lr v``.

    Matches the paper's training recipe (momentum 0.9). The gradient comes
    either from the parameters' own ``.grad`` fields (single-worker use) or
    from an explicit aggregated gradient (distributed use): a plain
    ``{name: array}`` dict, or a
    :class:`~repro.optim.decoded.DecodedAggregate` whose blocks are
    decoded here, one at a time, into a block of scratch just before they
    are applied — the aggregate is never formed whole.

    The update runs in place, one block of about 32 768 elements at a time
    (``v *= mu; v += g; s = lr * v; w -= s`` while the block is in cache,
    through one block of scratch): bit for bit the out-of-place arithmetic,
    with nothing allocated in a steady-state step. Blocks are slices along
    the leading axis (a 0-d tensor is one block), so they are views for any
    strides of ``param.data``; a decoded aggregate chooses its own blocks.
    Velocity and scratch are in the model's dtype.
    """

    def __init__(
        self,
        model: Module,
        lr: float = 0.1,
        momentum: float = 0.9,
        weight_decay: float = 0.0,
    ):
        if lr <= 0:
            raise ValueError(f"lr must be > 0, got {lr}")
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        if weight_decay < 0:
            raise ValueError(f"weight_decay must be >= 0, got {weight_decay}")
        self.model = model
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity: Dict[str, np.ndarray] = {}
        # Materialize names once so step() can look gradients up by name.
        self._named = dict(model.named_parameters())
        self._dtype = model.dtype
        # One update block of the parameter with the largest blocks; a
        # decoded aggregate's blocks also get one block to be decoded into.
        self._scratch = np.empty(max(
            (
                leading_rows(p.data)[lo:hi].size
                for p in self._named.values()
                for lo, hi in row_blocks(p.data.shape)[:1]
            ),
            default=0,
        ), self._dtype)
        self._decoded = np.empty(0, self._dtype)

    def _blocks_of_scratch(self, size: int) -> Tuple[np.ndarray, np.ndarray]:
        """The update scratch and the decode scratch, ``size`` each."""
        if self._scratch.size < size:
            self._scratch = np.empty(size, self._dtype)
        if self._decoded.size < size:
            self._decoded = np.empty(size, self._dtype)
        return self._scratch[:size], self._decoded

    def step(self, grads: Optional[Mapping[str, np.ndarray]] = None) -> None:
        """Apply one update.

        Args:
            grads: aggregated gradients by parameter name; when omitted, the
                parameters' own ``.grad`` fields are used.
        """
        decoded = isinstance(grads, DecodedAggregate)
        for name, param in self._named.items():
            if decoded:
                if name not in grads:
                    continue
                shape, blocks = grads.layout.shapes[name], grads.blocks(name)
            else:
                grad = param.grad if grads is None else grads.get(name)
                if grad is None:
                    continue
                shape, blocks = grad.shape, row_blocks(grad.shape)
                grad = leading_rows(grad)
            if shape != param.data.shape:
                raise ValueError(
                    f"gradient shape {shape} != parameter shape "
                    f"{param.data.shape} for {name!r}"
                )
            velocity = self._velocity.get(name)
            first = velocity is None
            if first:
                velocity = self._velocity[name] = np.empty(shape, self._dtype)
            data, velocity = leading_rows(param.data), leading_rows(velocity)
            for lo, hi in blocks:
                w, v = data[lo:hi], velocity[lo:hi]
                scratch, into = self._blocks_of_scratch(w.size)
                scratch = scratch.reshape(w.shape)
                g = grads.block(name, lo, hi, into) if decoded else grad[lo:hi]
                if self.weight_decay:
                    np.multiply(w, self.weight_decay, out=scratch)
                    scratch += g
                    g = scratch
                if first or not self.momentum:
                    np.copyto(v, g)
                else:
                    v *= self.momentum
                    v += g
                np.multiply(v, self.lr, out=scratch)
                w -= scratch

    def zero_grad(self) -> None:
        """Clear gradients on the wrapped model."""
        self.model.zero_grad()
