"""Tensor-fusion buffer planning (§IV-B of the paper) — shared module.

Gradients become ready in back-propagation order; tensor fusion packs
consecutive ready tensors into fixed-size buffers, each aggregated with one
collective. The buffer size trades WFBP overlap (small buffers) against
start-up amortization (large buffers).

This is the **single source of truth** for the bucketing policy: the
discrete-event simulator (:mod:`repro.sim.strategies`) and the real
execution path (:class:`repro.perf.arena.ArenaLayout` /
:class:`repro.train.reducer.BucketedReducer`) both partition through
:func:`partition_buckets`, so the simulated and the measured buffer-size
sensitivity (Fig. 8 / Fig. 10) can never drift apart.

For compressed methods the paper scales the buffer by the compression rate
("compressed buffer size"): e.g. ResNet-50 at rank 4 compresses to 0.64%
(P) / 1.07% (Q) of the gradient bytes, so a 25MB default buffer becomes
0.16MB / 0.27MB — keeping the *number* of buffers (and hence the
overlap/startup trade-off) roughly invariant across ranks. Fig. 10 shows
this makes ACP-SGD robust to the buffer-size hyper-parameter.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

#: PyTorch-DDP's default fusion buffer (§IV-B) — the paper's baseline.
DEFAULT_BUFFER_BYTES = 25 * 1024 * 1024


def partition_buckets(
    sizes_bytes: Sequence[float], buffer_bytes: float
) -> List[Tuple[int, int]]:
    """Greedily pack consecutive tensors into buckets of ``buffer_bytes``.

    Args:
        sizes_bytes: tensor sizes in readiness (BP) order.
        buffer_bytes: bucket capacity; ``0`` means no fusion (one tensor per
            bucket); a value >= the total means one bucket for everything.

    Returns:
        Half-open index ranges ``[(start, end), ...]`` covering the input.
        A bucket always holds at least one tensor, so a tensor larger than
        the buffer travels alone (PyTorch-DDP behaviour).
    """
    if buffer_bytes < 0:
        raise ValueError(f"buffer_bytes must be >= 0, got {buffer_bytes}")
    count = len(sizes_bytes)
    if count == 0:
        return []
    if buffer_bytes == 0:
        return [(idx, idx + 1) for idx in range(count)]
    buckets: List[Tuple[int, int]] = []
    start = 0
    filled = 0.0
    for idx, size in enumerate(sizes_bytes):
        if size < 0:
            raise ValueError(f"tensor size must be >= 0, got {size}")
        if idx > start and filled + size > buffer_bytes:
            buckets.append((start, idx))
            start = idx
            filled = 0.0
        filled += size
    buckets.append((start, count))
    return buckets


def scaled_buffer_size(
    default_buffer_bytes: float,
    compressed_total_bytes: float,
    uncompressed_total_bytes: float,
) -> float:
    """The paper's compressed buffer size: default x compression rate.

    E.g. 25MB x (0.63MB / 97.49MB) = 0.16MB for ResNet-50's P factors at
    rank 4, which batches the P tensors into ~4 buffers just like the
    uncompressed gradients.
    """
    if default_buffer_bytes < 0:
        raise ValueError(
            f"default_buffer_bytes must be >= 0, got {default_buffer_bytes}"
        )
    if uncompressed_total_bytes <= 0:
        raise ValueError(
            f"uncompressed_total_bytes must be > 0, got {uncompressed_total_bytes}"
        )
    if compressed_total_bytes < 0:
        raise ValueError(
            f"compressed_total_bytes must be >= 0, got {compressed_total_bytes}"
        )
    rate = compressed_total_bytes / uncompressed_total_bytes
    return default_buffer_bytes * rate
