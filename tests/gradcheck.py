"""Finite-difference gradient checking helpers for the nn test suite."""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.nn.module import Module


def numeric_grad(fn: Callable[[], float], array: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of scalar ``fn()`` w.r.t. ``array`` in place."""
    grad = np.zeros_like(array)
    flat = array.reshape(-1)
    grad_flat = grad.reshape(-1)
    for idx in range(flat.size):
        original = flat[idx]
        flat[idx] = original + eps
        upper = fn()
        flat[idx] = original - eps
        lower = fn()
        flat[idx] = original
        grad_flat[idx] = (upper - lower) / (2 * eps)
    return grad


def check_layer_gradients(
    layer: Module,
    x: np.ndarray,
    rtol: float = 1e-5,
    atol: float = 1e-7,
) -> None:
    """Verify a layer's analytic input and parameter gradients.

    Uses the scalar objective ``sum(w * layer(x))`` for a fixed random
    weighting ``w`` so the output gradient is non-trivial. Central
    differences need float64, so the layer is cast to it first.
    """
    layer.astype(np.float64)
    rng = np.random.default_rng(0)
    out = layer(x)
    weights = rng.normal(size=out.shape)

    def objective() -> float:
        return float((layer(x) * weights).sum())

    # Analytic gradients.
    layer.zero_grad()
    layer(x)
    grad_input = layer.backward(weights)

    num_grad_input = numeric_grad(objective, x)
    np.testing.assert_allclose(grad_input, num_grad_input, rtol=rtol, atol=atol)

    for name, param in layer.named_parameters():
        assert param.grad is not None, f"{name} got no gradient"
        num = numeric_grad(objective, param.data)
        np.testing.assert_allclose(
            param.grad, num, rtol=rtol, atol=atol,
            err_msg=f"parameter {name} gradient mismatch",
        )
