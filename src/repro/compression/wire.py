"""Each method's wire, declared once (the paper's Tables I and II).

Table II is a per-method schedule: what one step sends. This module is that
schedule as data and owns the three rules every reader of a wire needs —
:func:`low_rank_split` (§IV-C: a tensor is factored only if it is
matrix-shaped and factoring shrinks it), :func:`select_count` (the
sparsifiers' ``k``) and :func:`step_wire` (the collectives one monolithic
step issues). The aggregators, the simulator, its memory model and Tables
I/II read them and keep no copy. Bytes are per rank: a float costs
``elem_bytes`` (:data:`FP32` by default — the trainer's wire with
``repro.nn``'s float32 parameters, the simulator's and the tables'; 8 for
a model cast to float64); sign bits, QSGD levels and TernGrad codes are
packed bytes whatever it is.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Dict, Iterable, List, Tuple

from repro.compression.lowrank import LowRankState, factor_rank
from repro.compression.reshaping import matrix_view_shape, should_compress

FP32 = 4
ALL_REDUCE = "all_reduce"
ALL_GATHER = "all_gather"

Shapes = Iterable[Tuple[int, ...]]


@dataclass(frozen=True)
class Collective:
    """One collective of a step.

    ``kind`` is :data:`ALL_REDUCE` (a ring) or :data:`ALL_GATHER`; ``group``
    the tensors it carries (``raw``, ``plain``, ``P``, ``Q``, ``signs``,
    ``selection`` or ``levels``); ``sizes`` the bytes per rank, one entry
    per tensor where the group is fused tensor by tensor, else one for the
    fused vector; ``nbytes`` the bytes per rank on the trainer's wire —
    ``sum(sizes)`` except for Random-k (see :func:`step_wire`).
    """

    kind: str
    group: str
    sizes: Tuple[float, ...]
    nbytes: float


def _fused(kind: str, group: str, sizes: List[float]) -> Collective:
    return Collective(kind, group, tuple(sizes), sum(sizes))


def low_rank_split(
    shapes: Shapes, rank: int
) -> Tuple[Dict[int, Tuple[int, int, int]], List[int]]:
    """§IV-C: ``(factored, plain)`` at ``rank``, both in input order.

    ``factored`` maps the index of each tensor Power-SGD and ACP-SGD factor
    to its matrix view and factor width ``(n, m, r)``; ``plain`` lists the
    rest — vectors, and matrices factoring would not shrink — which travel
    uncompressed.
    """
    factored: Dict[int, Tuple[int, int, int]] = {}
    plain: List[int] = []
    for index, shape in enumerate(shapes):
        if should_compress(shape):
            n, m = matrix_view_shape(shape)
            r = factor_rank(rank, n, m)
            if n * m > (n + m) * r:
                factored[index] = (n, m, r)
                continue
        plain.append(index)
    return factored, plain


def select_count(ratio: float, size: int) -> int:
    """Elements a sparsifier keeping ``ratio`` of ``size`` selects: at least one."""
    return max(1, int(round(ratio * size)))


def step_wire(
    method: str,
    shapes: Shapes,
    *,
    rank: int = 4,
    ratio: float = 0.001,
    half: int = 1,
    elem_bytes: int = FP32,
) -> Tuple[Collective, ...]:
    """The collectives one monolithic step of aggregator ``method`` issues,
    in order, over parameters of ``shapes`` (layout order).

    ``rank`` is the low-rank methods', ``ratio`` the sparsifiers' keep
    fraction. ``half`` is ACP-SGD's half this step (1-based; step ``t``
    runs half ``t``): odd halves send P, even ones Q; Power-SGD sends both.
    A group with no tensors issues no collective. Top-k and DGC gather ``k``
    indices beside ``k`` values, both as floats; QSGD a byte per level (its
    default 255 levels) and a sign bit per element. Random-k all-reduces
    the values at ``k`` shared coordinates of the fused vector, which is
    ``nbytes``; its ``sizes`` are the per-tensor expectation ``ratio x
    size``, because the trainer's selection has no per-tensor split while
    the simulator fuses Random-k tensor by tensor (its golden traces pin
    that expectation).
    """
    shapes = list(shapes)
    numels = [prod(shape) for shape in shapes]
    total = sum(numels)
    if method in ("topk", "dgc", "randomk") and not 0.0 < ratio <= 1.0:
        raise ValueError(f"ratio must be in (0, 1], got {ratio}")
    if method == "ssgd":
        wire = [_fused(ALL_REDUCE, "raw", [n * elem_bytes for n in numels])]
    elif method == "signsgd":
        wire = [_fused(ALL_GATHER, "signs", [(total + 7) // 8])]
    elif method in ("topk", "dgc"):
        k = select_count(ratio, total)
        wire = [_fused(ALL_GATHER, "selection", [2 * k * elem_bytes])]
    elif method == "randomk":
        k = select_count(ratio, total)
        wire = [Collective(ALL_REDUCE, "selection",
                           tuple(n * elem_bytes * ratio for n in numels), k * elem_bytes)]
    elif method == "qsgd":
        wire = [_fused(ALL_GATHER, "levels", [total + (total + 7) // 8])]
    elif method == "terngrad":
        wire = [_fused(ALL_GATHER, "levels", [(total + 3) // 4])]
    elif method in ("powersgd", "acpsgd"):
        if rank < 1:
            raise ValueError(f"rank must be >= 1, got {rank}")
        factored, plain = low_rank_split(shapes, rank)
        wire = [_fused(ALL_REDUCE, "plain", [numels[i] * elem_bytes for i in plain])]
        if method == "powersgd" or LowRankState.compresses_p(half):
            wire.append(_fused(ALL_REDUCE, "P", [
                n * r * elem_bytes for n, _, r in factored.values()
            ]))
        if method == "powersgd" or not LowRankState.compresses_p(half):
            wire.append(_fused(ALL_REDUCE, "Q", [
                m * r * elem_bytes for _, m, r in factored.values()
            ]))
    else:
        raise ValueError(f"unknown method {method!r}")
    return tuple(collective for collective in wire if collective.nbytes)


def _per_step(method, shapes, count, **kwargs) -> float:
    """``count(wire)`` of a step, averaged over ACP-SGD's two parities."""
    halves = [count(step_wire(method, shapes, half=h, **kwargs)) for h in (1, 2)]
    return sum(halves) / 2.0


def compression_ratio(
    shapes: Shapes, method: str, *, rank: int = 4, ratio: float = 0.001
) -> float:
    """Table I's headline ratio: dense float32 bytes over a step's wire
    bytes. Top-k counts its ``k`` values only, as the paper does (1000x at
    0.1%); the indices beside them show in Table II."""
    shapes = list(shapes)
    dense = float(sum(prod(shape) for shape in shapes) * FP32)
    if method == "topk":
        (selection,) = step_wire(method, shapes, ratio=ratio)
        return dense / (selection.nbytes / 2.0)
    return dense / _per_step(
        method, shapes, lambda wire: sum(c.nbytes for c in wire),
        rank=rank, ratio=ratio,
    )


def communicate_elements(
    method: str, world: int, shapes: Shapes, *, rank: int = 4,
    ratio: float = 0.001,
) -> float:
    """Table II's 'Communicate' row: float32 elements one of ``world`` ranks
    sends per step — ``2 (p-1)/p B`` of a ring all-reduce's ``B`` bytes,
    ``(p-1) B`` of an all-gather's."""
    if world < 1:
        raise ValueError(f"worker count must be >= 1, got {world}")
    ring, gather = 2.0 * (world - 1) / world, world - 1
    return _per_step(method, list(shapes), lambda wire: sum(
        (ring if c.kind == ALL_REDUCE else gather) * c.nbytes for c in wire
    ) / FP32, rank=rank, ratio=ratio)
