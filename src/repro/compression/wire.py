"""Each method's wire, declared once (the paper's Tables I and II).

Table II is a per-method schedule: what one step sends. This module is that
schedule as data and owns the rules every reader of a wire needs —
:data:`WIRE_GROUPS` (what a method ships, by which collective, when),
:func:`low_rank_split` (§IV-C: a tensor is factored only if it is
matrix-shaped and factoring shrinks it), :func:`select_count` (the
sparsifiers' ``k``) and :func:`step_wire` (the collectives one monolithic
step issues). The aggregators, the simulator, its memory model and Tables
I/II read them and keep no copy. Bytes are per rank: a float costs
``elem_bytes`` (:data:`FP32` by default — the trainer's wire with
``repro.nn``'s float32 parameters, the simulator's and the tables'; 8 for
a model cast to float64); sign bits, QSGD levels and TernGrad codes are
packed bytes whatever it is.

Known gap: the per-rank scalar a decoder needs beside a packed payload —
Sign-SGD's scale, QSGD's norm, TernGrad's scale — is off the wire; the
trainer's decoder reads the rank's own. Shipping it would move the golden
plans, so neither the declaration nor the trainer does.
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

# When a group ships: as each bucket's gradients land; per bucket, once
# the method's step-wide encode ran; or once per step.
AS_LANDED = "as_landed"
PER_BUCKET = "per_bucket"
PER_STEP = "per_step"

Shapes = Iterable[Tuple[int, ...]]

_LOW_RANK = tuple((group, ALL_REDUCE, AS_LANDED) for group in ("plain", "P", "Q"))
#: Per method, the ``(group, kind, when)`` of every tensor group a step
#: ships, in order (§IV-A: additive payloads ride the all-reduce, the rest
#: an all-gather). Top-k's per-bucket gathers wait for its vector-global
#: select; Random-k and the quantizers ship the whole vector once.
WIRE_GROUPS: Dict[str, Tuple[Tuple[str, str, str], ...]] = {
    "ssgd": (("raw", ALL_REDUCE, AS_LANDED),),
    "signsgd": (("signs", ALL_GATHER, AS_LANDED),),
    "topk": (("selection", ALL_GATHER, PER_BUCKET),),
    "dgc": (("selection", ALL_GATHER, PER_BUCKET),),
    "randomk": (("selection", ALL_REDUCE, PER_STEP),),
    "qsgd": (("levels", ALL_GATHER, PER_STEP),),
    "terngrad": (("levels", ALL_GATHER, PER_STEP),),
    "powersgd": _LOW_RANK,
    "acpsgd": _LOW_RANK,
}


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
    if method not in WIRE_GROUPS:
        raise ValueError(f"unknown method {method!r}")
    shapes = list(shapes)
    numels = [prod(shape) for shape in shapes]
    total = sum(numels)
    if method in ("topk", "dgc", "randomk") and not 0.0 < ratio <= 1.0:
        raise ValueError(f"ratio must be in (0, 1], got {ratio}")
    factored, plain = {}, []
    if method in ("powersgd", "acpsgd"):
        if rank < 1:
            raise ValueError(f"rank must be >= 1, got {rank}")
        factored, plain = low_rank_split(shapes, rank)
    k = select_count(ratio, total)
    sizes = {
        "raw": [n * elem_bytes for n in numels],
        "signs": [(total + 7) // 8],
        "selection": [2 * k * elem_bytes],
        "levels": [total + (total + 7) // 8 if method == "qsgd" else (total + 3) // 4],
        "plain": [numels[i] * elem_bytes for i in plain],
        "P": [n * r * elem_bytes for n, _, r in factored.values()],
        "Q": [m * r * elem_bytes for _, m, r in factored.values()],
    }
    skipped = "Q" if LowRankState.compresses_p(half) else "P"
    wire = []
    for group, kind, _ in WIRE_GROUPS[method]:
        if method == "randomk":
            wire.append(Collective(kind, group, tuple(
                n * elem_bytes * ratio for n in numels
            ), k * elem_bytes))
        elif not (method == "acpsgd" and group == skipped):
            wire.append(Collective(kind, group, tuple(sizes[group]), sum(sizes[group])))
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
