"""Token embedding lookup."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn.module import Module
from repro.nn.parameter import Parameter


class Embedding(Module):
    """Lookup table mapping integer ids to dense vectors.

    The weight is a large 2-D matrix (``vocab x dim``) — exactly the kind of
    parameter that dominates BERT's communication volume and that low-rank
    compression targets.
    """

    def __init__(
        self,
        num_embeddings: int,
        embedding_dim: int,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        if num_embeddings < 1 or embedding_dim < 1:
            raise ValueError(
                f"sizes must be >= 1, got vocab={num_embeddings}, dim={embedding_dim}"
            )
        rng = rng if rng is not None else np.random.default_rng(0)
        self.weight = Parameter(
            rng.normal(0.0, 0.02, size=(num_embeddings, embedding_dim))
            .astype(np.float32)
        )
        self._ids: Optional[np.ndarray] = None

    def forward(self, ids: np.ndarray) -> np.ndarray:
        ids = np.asarray(ids)
        if not np.issubdtype(ids.dtype, np.integer):
            raise ValueError(f"Embedding expects integer ids, got dtype {ids.dtype}")
        vocab = self.weight.data.shape[0]
        if ids.min(initial=0) < 0 or ids.max(initial=0) >= vocab:
            raise ValueError(f"ids out of range [0, {vocab})")
        self._ids = ids
        return self.weight.data[ids]

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._ids is None:
            raise RuntimeError("backward called before forward")
        grad_w = np.zeros_like(self.weight.data)
        flat_ids = self._ids.reshape(-1)
        flat_grad = grad_output.reshape(-1, grad_output.shape[-1])
        np.add.at(grad_w, flat_ids, flat_grad)
        self.weight.accumulate_grad(grad_w)
        self._ids = None
        # Ids are not differentiable; return a zero placeholder of their shape.
        return np.zeros(self._shape_of_ids(flat_ids, grad_output))

    @staticmethod
    def _shape_of_ids(flat_ids: np.ndarray, grad_output: np.ndarray) -> tuple:
        return grad_output.shape[:-1]
