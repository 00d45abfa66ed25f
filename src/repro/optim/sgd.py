"""SGD with momentum and weight decay."""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.nn.module import Module


class SGD:
    """Heavy-ball SGD: ``v <- mu v + g``, ``w <- w - lr (v + wd * w)``.

    Matches the paper's training recipe (momentum 0.9). The gradient comes
    either from the parameters' own ``.grad`` fields (single-worker use) or
    from an explicit aggregated-gradient dict (distributed use).

    The update runs in place (``v *= mu; v += g; w -= lr * v`` through one
    scratch sized for the largest parameter, bit for bit the out-of-place
    arithmetic), so a steady-state step allocates nothing.
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
        self._scratch = np.empty(
            max((p.data.size for p in self._named.values()), default=0)
        )

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
            scratch = self._scratch[: param.data.size].reshape(param.data.shape)
            if self.weight_decay:
                np.multiply(param.data, self.weight_decay, out=scratch)
                scratch += grad
                grad = scratch
            velocity = self._velocity.get(name)
            if velocity is None:
                velocity = self._velocity[name] = grad.astype(np.float64, copy=True)
            elif self.momentum:
                velocity *= self.momentum
                velocity += grad
            else:
                np.copyto(velocity, grad)
            np.multiply(velocity, self.lr, out=scratch)
            param.data -= scratch

    def zero_grad(self) -> None:
        """Clear gradients on the wrapped model."""
        self.model.zero_grad()
