"""Decoded aggregates: one step's aggregated gradients, decoded block by block.

A compressing aggregator (:mod:`repro.optim.aggregators`) reduces a
payload — sparse selections, a sign vote, low-rank factors — and returns it
as a :class:`DecodedAggregate` instead of decoding the average into a
model-sized buffer. :class:`~repro.optim.sgd.SGD` decodes one block of a
tensor's leading-axis rows at a time, into a block of scratch, just before
it applies it. A plain ``{name: array}`` dict is the dense case (S-SGD,
QSGD, TernGrad, ``.grad``).
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from typing import Dict, List, Tuple
from weakref import WeakKeyDictionary

import numpy as np

from repro.perf.arena import ArenaLayout
from repro.utils.validation import is_finite

# 32768 float32 = 128 KiB: a block of w, g, v and the scratch fit in L2.
_BLOCK_ELEMENTS = 32768


def leading_rows(array: np.ndarray) -> np.ndarray:
    """``array`` as rows along its leading axis (a 0-d tensor is one row)."""
    return array if array.ndim else array[None]


def row_size(shape: Tuple[int, ...]) -> int:
    """Elements in one leading-axis row of a tensor of ``shape``."""
    return int(np.prod(shape[1:], dtype=np.int64))


def row_blocks(shape: Tuple[int, ...]) -> List[Tuple[int, int]]:
    """Leading-axis row ranges of about 32 768 elements (at least one row)."""
    rows = shape[0] if shape else 1
    step = max(1, _BLOCK_ELEMENTS * rows // max(int(np.prod(shape)), 1))
    return [(lo, min(lo + step, rows)) for lo in range(0, rows, step)]


#: Per layout, each tensor's :func:`row_size` — a layout outlives the
#: aggregates of many steps, and every decoded block reads its row size.
_ROWS: "WeakKeyDictionary[ArenaLayout, Dict[str, int]]" = WeakKeyDictionary()


class DecodedAggregate(Mapping):
    """One step's aggregated gradients, decoded a block of rows at a time.

    What a compressing method's ``finish_buckets`` returns in place of
    tensors: the reduced payload (selections, the vote, low-rank factors)
    and how to decode any block of a tensor's leading-axis rows from it.
    :class:`~repro.optim.sgd.SGD` decodes each block into a block of
    scratch just before it applies it, so the aggregate is never formed
    whole. Item access builds a fresh full tensor — for tests, tables and
    any other reader — with the same bits. Valid until the next
    aggregation begins.
    """

    def __init__(self, layout: ArenaLayout):
        self.layout = layout
        rows = _ROWS.get(layout)
        if rows is None:
            rows = _ROWS[layout] = {
                name: row_size(shape) for name, shape in layout.shapes.items()
            }
        self._rows = rows

    def __iter__(self) -> Iterator[str]:
        return iter(self.layout.names)

    def __len__(self) -> int:
        return len(self.layout.names)

    def __contains__(self, name: object) -> bool:
        return name in self.layout.shapes

    def __getitem__(self, name: str) -> np.ndarray:
        shape = self.layout.shapes[name]
        full = np.empty(shape, self.layout.dtype)
        rows, flat, row = leading_rows(full), full.reshape(-1), self._rows[name]
        for lo, hi in self.blocks(name):
            rows[lo:hi] = self.block(name, lo, hi, flat[lo * row : hi * row])
        return full

    def blocks(self, name: str) -> List[Tuple[int, int]]:
        """The row ranges :meth:`block` decodes ``name`` in."""
        return row_blocks(self.layout.shapes[name])

    def block(self, name: str, lo: int, hi: int, out: np.ndarray) -> np.ndarray:
        """Rows ``lo:hi`` of ``name``, decoded into the flat ``out`` (the
        layout's dtype, room for those rows at least), or a view of the
        payload where nothing needs decoding."""
        raise NotImplementedError

    def is_finite(self) -> bool:
        """Whether every decoded value is finite, judged from the payload.

        Conservative: a finite payload whose decode could overflow counts
        as non-finite.
        """
        raise NotImplementedError


def aggregate_is_finite(aggregated: Mapping[str, np.ndarray]) -> bool:
    """Whether an aggregation result holds only finite values (a decoded
    aggregate answers from its payload)."""
    if isinstance(aggregated, DecodedAggregate):
        return aggregated.is_finite()
    return all(is_finite(grad) for grad in aggregated.values())
