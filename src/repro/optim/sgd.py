"""SGD with momentum and weight decay."""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.nn.module import Module

# 32768 float64 = 256 KiB: a block of w, g, v and the scratch fit in L2.
_BLOCK_ELEMENTS = 32768


def _block_rows(data: np.ndarray) -> int:
    """Leading-axis rows per update block of ``data`` (at least one)."""
    return max(1, _BLOCK_ELEMENTS * len(data) // max(data.size, 1))


class SGD:
    """Heavy-ball SGD: ``v <- mu v + (g + wd * w)``, ``w <- w - lr v``.

    Matches the paper's training recipe (momentum 0.9). The gradient comes
    either from the parameters' own ``.grad`` fields (single-worker use) or
    from an explicit aggregated-gradient dict (distributed use).

    The update runs in place, one block of about 32 768 elements at a time
    (``v *= mu; v += g; s = lr * v; w -= s`` while the block is in cache,
    through one block of scratch): bit for bit the out-of-place arithmetic,
    with nothing allocated in a steady-state step. Blocks are slices along
    the leading axis, so they are views for any strides of ``param.data``.
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
        # One update block of the parameter with the largest blocks.
        self._scratch = np.empty(max(
            (p.data[: _block_rows(p.data)].size for p in self._named.values()),
            default=0,
        ))

    def step(self, grads: Optional[Dict[str, np.ndarray]] = None) -> None:
        """Apply one update.

        Args:
            grads: aggregated gradients by parameter name; when omitted, the
                parameters' own ``.grad`` fields are used.
        """
        for name, param in self._named.items():
            if grads is not None:
                grad = grads.get(name)
            else:
                grad = param.grad
            if grad is None:
                continue
            if grad.shape != param.data.shape:
                raise ValueError(
                    f"gradient shape {grad.shape} != parameter shape "
                    f"{param.data.shape} for {name!r}"
                )
            data = param.data
            velocity = self._velocity.get(name)
            first = velocity is None
            if first:
                velocity = self._velocity[name] = np.empty(data.shape)
            rows = _block_rows(data)
            for lo in range(0, len(data), rows):
                w, g, v = data[lo : lo + rows], grad[lo : lo + rows], velocity[lo : lo + rows]
                scratch = self._scratch[: w.size].reshape(w.shape)
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
