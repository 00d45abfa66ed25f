"""Loss functions: forward returns scalar loss, backward returns dL/dlogits."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn import functional as F


class CrossEntropyLoss:
    """Softmax cross-entropy over integer class labels (mean reduction)."""

    def __init__(self) -> None:
        self._cache: Optional[tuple] = None

    def forward(self, logits: np.ndarray, labels: np.ndarray) -> float:
        if logits.ndim != 2:
            raise ValueError(f"expected (batch, classes) logits, got {logits.shape}")
        labels = np.asarray(labels)
        if labels.shape != (logits.shape[0],):
            raise ValueError(
                f"labels shape {labels.shape} != batch ({logits.shape[0]},)"
            )
        log_probs = F.log_softmax(logits, axis=1)
        batch = logits.shape[0]
        loss = -log_probs[np.arange(batch), labels].mean()
        self._cache = (F.softmax(logits, axis=1), labels)
        return float(loss)

    def backward(self) -> np.ndarray:
        """Gradient of the mean loss with respect to the logits."""
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        probs, labels = self._cache
        batch = probs.shape[0]
        grad = probs.copy()
        grad[np.arange(batch), labels] -= 1.0
        self._cache = None
        return grad / batch

    def __call__(self, logits: np.ndarray, labels: np.ndarray) -> float:
        return self.forward(logits, labels)
