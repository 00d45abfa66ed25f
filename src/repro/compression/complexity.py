"""Analytical compress/communicate complexity (the paper's Table II).

| method     | compress        | communicate (elements per worker) |
|------------|-----------------|-----------------------------------|
| S-SGD      | —               | 2 (p-1)/p * N                     |
| Sign-SGD   | O(N)            | (p-1) * N/32                      |
| Top-k SGD  | O(k log N)      | (p-1) * 2k                        |
| Power-SGD  | O(N r)          | 2 (p-1)/p * N_c                   |
| ACP-SGD    | O(N r) / 2      | (p-1)/p * N_c (one factor/step)   |

where ``p`` is the worker count, ``N`` the gradient elements, ``k`` the
Top-k selection, ``r`` the rank, and ``N_c`` the Power-SGD compressed size.
These functions return numbers (not O-classes) so tests can compare against
the traffic the real collectives measured.
"""

from __future__ import annotations


def _check(p: int, n: float) -> None:
    if p < 1:
        raise ValueError(f"worker count must be >= 1, got {p}")
    if n < 0:
        raise ValueError(f"element count must be >= 0, got {n}")


def communicate_elements(method: str, p: int, n: float, **kwargs) -> float:
    """Elements sent per worker per step (Table II, 'Communicate' row)."""
    _check(p, n)
    if p == 1:
        return 0.0
    if method == "ssgd":
        return 2.0 * (p - 1) / p * n
    if method == "signsgd":
        # 1-bit payload measured in float32-equivalent elements.
        return (p - 1) * n / 32.0
    if method == "topk":
        k = kwargs["k"]
        return (p - 1) * 2.0 * k
    if method == "powersgd":
        n_c = kwargs["n_c"]
        return 2.0 * (p - 1) / p * n_c
    if method == "acpsgd":
        # Per-step single factor of average size n_c / 2, ring all-reduced.
        n_c = kwargs["n_c"]
        return 2.0 * (p - 1) / p * (n_c / 2.0)
    raise ValueError(f"unknown method {method!r}")
