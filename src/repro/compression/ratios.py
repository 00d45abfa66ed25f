"""Compression-ratio accounting (the paper's Table I).

Conventions follow the paper:

- Sign-SGD: 32x (float32 -> 1 bit per element).
- Top-k SGD: ``1/ratio`` (e.g. 1000x for ratio 0.1%), counting selected
  elements; the index overhead appears in the *communication* accounting
  (Table II's ``2k``), not the headline ratio.
- Power-SGD / ACP-SGD: ratio of total gradient elements ``N`` to compressed
  elements ``N_c``. Vector-shaped parameters travel uncompressed and are
  charged at full size. For Power-SGD ``N_c = sum(n r + m r)`` over
  compressible matrices; for ACP-SGD only one factor travels per step, so
  the per-step average is ``sum((n + m)/2 * r)``.
"""

from __future__ import annotations

from typing import Iterable, Tuple

from repro.compression.reshaping import matrix_view_shape, should_compress

ShapeList = Iterable[Tuple[int, ...]]


def _split_shapes(shapes: ShapeList) -> Tuple[list, int]:
    """Partition into (compressible matrix views, uncompressed elements)."""
    matrices = []
    uncompressed = 0
    for shape in shapes:
        total = 1
        for dim in shape:
            total *= dim
        if should_compress(shape):
            matrices.append(matrix_view_shape(shape))
        else:
            uncompressed += total
    return matrices, uncompressed


def total_elements(shapes: ShapeList) -> int:
    """Total gradient elements ``N`` across all parameters."""
    count = 0
    for shape in shapes:
        total = 1
        for dim in shape:
            total *= dim
        count += total
    return count


def powersgd_compressed_elements(shapes: ShapeList, rank: int) -> int:
    """Elements Power-SGD communicates per step: ``sum(nr + mr)`` + vectors."""
    if rank < 1:
        raise ValueError(f"rank must be >= 1, got {rank}")
    matrices, uncompressed = _split_shapes(shapes)
    compressed = 0
    for n, m in matrices:
        r = min(rank, n, m)
        compressed += n * r + m * r
    return compressed + uncompressed


def acpsgd_compressed_elements(shapes: ShapeList, rank: int) -> float:
    """Per-step average elements ACP-SGD communicates: half of Power-SGD's.

    Odd steps send ``sum(n r)``, even steps ``sum(m r)``; the average is
    ``sum((n + m)/2 * r)`` plus the uncompressed vector parameters.
    """
    if rank < 1:
        raise ValueError(f"rank must be >= 1, got {rank}")
    matrices, uncompressed = _split_shapes(shapes)
    compressed = 0.0
    for n, m in matrices:
        r = min(rank, n, m)
        compressed += (n + m) / 2.0 * r
    return compressed + uncompressed


def topk_compressed_elements(shapes: ShapeList, ratio: float) -> int:
    """Selected elements ``k`` for Top-k at the given keep-ratio."""
    if not 0.0 < ratio <= 1.0:
        raise ValueError(f"ratio must be in (0, 1], got {ratio}")
    return max(1, int(round(total_elements(shapes) * ratio)))


def compression_ratio(shapes: ShapeList, method: str, **kwargs) -> float:
    """Headline compression ratio for Table I.

    Args:
        shapes: all parameter shapes of the model.
        method: ``"signsgd"``, ``"topk"``, ``"powersgd"`` or ``"acpsgd"``.
        kwargs: ``rank`` for the low-rank methods, ``ratio`` for Top-k.
    """
    shapes = list(shapes)
    n_total = total_elements(shapes)
    if method == "signsgd":
        return 32.0
    if method == "topk":
        ratio = kwargs.get("ratio", 0.001)
        return n_total / topk_compressed_elements(shapes, ratio)
    if method == "powersgd":
        rank = kwargs.get("rank", 4)
        return n_total / powersgd_compressed_elements(shapes, rank)
    if method == "acpsgd":
        rank = kwargs.get("rank", 4)
        return n_total / acpsgd_compressed_elements(shapes, rank)
    raise ValueError(f"unknown method {method!r}")
