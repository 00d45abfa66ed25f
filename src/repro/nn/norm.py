"""Normalization layers: BatchNorm2d and LayerNorm."""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.nn.module import Module
from repro.nn.parameter import Parameter


class BatchNorm2d(Module):
    """Batch normalization over NCHW inputs (per-channel statistics).

    Running statistics are plain arrays (not Parameters): they receive no
    gradient and are never communicated, matching DDP's treatment of
    BatchNorm buffers. gamma/beta are 1-D ("vector-shaped") parameters, which
    the compression layer leaves uncompressed per §IV-C of the paper.
    """

    def __init__(self, num_features: int, eps: float = 1e-5, momentum: float = 0.1):
        super().__init__()
        if num_features < 1:
            raise ValueError(f"num_features must be >= 1, got {num_features}")
        self.weight = Parameter(np.ones(num_features, dtype=np.float32))
        self.bias = Parameter(np.zeros(num_features, dtype=np.float32))
        self.running_mean = np.zeros(num_features, dtype=np.float32)
        self.running_var = np.ones(num_features, dtype=np.float32)
        self.eps = eps
        self.momentum = momentum
        # When set (a list), training forwards append their (mean, var)
        # batch statistics here INSTEAD of updating the running buffers.
        # Process workers' model copies record per-batch stats this way and
        # the pool replays them onto the master model in rank order, so the
        # running buffers end up bit-identical to a sequential pass (the
        # batch statistics depend only on the batch, not on the buffers).
        self.stat_recorder: Optional[list] = None
        self._cache: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4:
            raise ValueError(f"BatchNorm2d expects NCHW input, got shape {x.shape}")
        # Two-pass, centred variance with the mean computed once; the centred
        # input becomes x_hat in place, so the only full-size arrays a forward
        # makes are x_hat and the output.
        mean = x.mean(axis=(0, 2, 3)) if self.training else self.running_mean
        x_hat = x - mean[None, :, None, None]
        if self.training:
            var = np.einsum("nchw,nchw->c", x_hat, x_hat) / (x.size // x.shape[1])
            if self.stat_recorder is not None:
                self.stat_recorder.append((mean, var))
            else:
                self.apply_batch_stats(mean, var)
        else:
            var = self.running_var
        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat *= inv_std[None, :, None, None]
        out = x_hat * self.weight.data[None, :, None, None]
        out += self.bias.data[None, :, None, None]
        if self.training:
            self._cache = (x_hat, inv_std)
        return out

    def apply_batch_stats(self, mean: np.ndarray, var: np.ndarray) -> None:
        """Fold one batch's statistics into the running buffers.

        The single update rule shared by the direct (sequential) path and
        the recorded-replay (parallel) path — keeping them one expression
        is what makes the two training modes bit-identical.
        """
        self.running_mean = (
            (1 - self.momentum) * self.running_mean + self.momentum * mean
        )
        self.running_var = (
            (1 - self.momentum) * self.running_var + self.momentum * var
        )

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward (training mode)")
        x_hat, inv_std = self._cache
        self._cache = None
        m = x_hat.size // x_hat.shape[1]

        sum_grad = grad_output.sum(axis=(0, 2, 3))
        sum_grad_xhat = np.einsum("nchw,nchw->c", grad_output, x_hat)
        self.bias.accumulate_grad(sum_grad)
        self.weight.accumulate_grad(sum_grad_xhat)

        # gamma * inv_std * (g - mean(g) - x_hat * mean(g * x_hat)), with
        # the released x_hat as scratch: one new full-size array, the result.
        x_hat *= (sum_grad_xhat / m)[None, :, None, None]
        x_hat += (sum_grad / m)[None, :, None, None]
        grad_input = grad_output - x_hat
        grad_input *= (self.weight.data * inv_std)[None, :, None, None]
        return grad_input


class LayerNorm(Module):
    """Layer normalization over the last dimension (transformer-style)."""

    def __init__(self, normalized_dim: int, eps: float = 1e-5):
        super().__init__()
        if normalized_dim < 1:
            raise ValueError(f"normalized_dim must be >= 1, got {normalized_dim}")
        self.weight = Parameter(np.ones(normalized_dim, dtype=np.float32))
        self.bias = Parameter(np.zeros(normalized_dim, dtype=np.float32))
        self.eps = eps
        self._cache: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.shape[-1] != self.weight.data.shape[0]:
            raise ValueError(
                f"last dim {x.shape[-1]} != normalized_dim {self.weight.data.shape[0]}"
            )
        mean = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat = (x - mean) * inv_std
        self._cache = (x_hat, inv_std)
        return self.weight.data * x_hat + self.bias.data

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        x_hat, inv_std = self._cache
        d = x_hat.shape[-1]
        axes = tuple(range(grad_output.ndim - 1))
        self.bias.accumulate_grad(grad_output.sum(axis=axes))
        self.weight.accumulate_grad((grad_output * x_hat).sum(axis=axes))

        grad_xhat = grad_output * self.weight.data
        sum_grad = grad_xhat.sum(axis=-1, keepdims=True)
        sum_grad_xhat = (grad_xhat * x_hat).sum(axis=-1, keepdims=True)
        grad_input = inv_std * (grad_xhat - sum_grad / d - x_hat * sum_grad_xhat / d)
        self._cache = None
        return grad_input
