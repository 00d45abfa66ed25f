"""Top-k sparsification [Lin et al. DGC; Shi et al. MLSys'21].

Each worker keeps only the k largest-magnitude gradient elements and
transmits (values, indices) — ``2k`` numbers per worker (Table II). The
selected coordinates differ across workers, so the compressed tensors are
not additive and aggregation uses all-gather + local sparse summation.

Two selection strategies, matching §III-A of the paper:

- exact: the k largest magnitudes (the paper notes a full selection is slow
  on GPUs) — :func:`exact_topk_mask` is one ``argpartition`` over ``|x|``;
  :func:`topk_select` picks the same set from the few candidates a sampled
  lower bound leaves, and is what :class:`TopkCompressor` runs;
- multiple sampling: estimate a magnitude threshold by binary search over a
  random sample of the tensor so that roughly k elements exceed it — the
  "multiple sampling uses binary search to find a close top-k threshold"
  approach attributed to [21].

Error feedback keeps the unsent residual and adds the next gradient to it
(Stich et al., "Sparsified SGD with memory"): the compressor selects on the
caller's accumulator and zeroes what it sent, so the residual stays where
the gradient was added (in the trainer, the rank's arena slab).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.compression.wire import select_count


def sparse_wire(indices: np.ndarray, values: np.ndarray) -> np.ndarray:
    """One rank's ``(index, value)`` pairs as one array in the values' dtype.

    The indices come first, bit-cast into value lanes: each is stored as
    the signed integer of the values' width (``int32`` under ``float32``)
    and its bits are viewed as a value. That is exact for every index the
    integer holds, where a numeric cast to float32 would round indices of
    2**24 and above. ``wire[:k].view(f"i{itemsize}")`` reads them back.
    """
    lane = np.dtype(f"i{values.dtype.itemsize}")
    if indices.size and not 0 <= indices.min() <= indices.max() <= np.iinfo(lane).max:
        raise ValueError(f"indices do not fit the wire's {lane} lanes")
    return np.concatenate([indices.astype(lane).view(values.dtype), values])


@dataclass
class SparsePayload:
    """Wire format of one worker's sparsified tensor."""

    indices: np.ndarray  # int64 coordinates into the flattened tensor
    values: np.ndarray  # float values at those coordinates
    num_elements: int  # original dense size

    @property
    def k(self) -> int:
        return int(self.indices.size)


def _trivial_selection(size: int, k: int) -> Optional[np.ndarray]:
    """The selection when ``k`` leaves nothing to choose (else ``None``)."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if k == 0:
        return np.zeros(0, dtype=np.int64)
    if k >= size:
        return np.arange(size, dtype=np.int64)
    return None


def _largest(magnitudes: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` largest entries, ``0 < k <= size`` (NaN sorts last)."""
    cut = magnitudes.size - k
    return np.argpartition(magnitudes, cut)[cut:].astype(np.int64, copy=False)


def exact_topk_mask(flat: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` largest-magnitude elements (exact, the oracle)."""
    trivial = _trivial_selection(flat.size, k)
    return trivial if trivial is not None else _largest(np.abs(flat), k)


SELECT_BLOCK = 1 << 16  # confirming-pass block: 256 KiB of float32 |x| stays in cache
_SAMPLE = 1 << 15  # strided magnitudes the candidate bound is read from
_KERNEL_MIN_SIZE = 1 << 16  # below it one argpartition is as cheap


def _not_below(flat, lo, block, below, bound) -> Tuple[np.ndarray, np.ndarray]:
    """The positions in ``flat``'s block at ``lo`` whose magnitude is not
    below ``bound``, and those magnitudes.

    ``|x|`` goes into ``block`` and the comparison into ``below``;
    ``not (|x| < bound)`` keeps NaN a candidate, as the oracle orders it.
    """
    mags = np.abs(flat[lo : lo + block.size], out=block[: flat.size - lo])
    mask = np.less(mags, bound, out=below[: mags.size])
    hits = np.logical_not(mask, out=mask).nonzero()[0]
    return hits + lo, mags[hits]


def _select_above_sampled_bound(
    flat: np.ndarray, k: int, block: np.ndarray
) -> Optional[np.ndarray]:
    """Exact top-k through a sampled lower bound, or ``None`` to fall back.

    The bound is an order statistic of a deterministic strided sample of
    ``|flat|`` (no rng draw), four standard deviations of sampling noise
    below the sample's estimate of the k-th magnitude, so one confirming
    pass — ``|x|`` block by block into ``block`` — leaves a little over
    ``k`` candidates for the ``argpartition``. ``None`` when the bound was
    wrong (fewer than ``k`` candidates: ties, mostly zeros) or useless
    (more than ``4k``: a NaN or zero bound).
    """
    size = flat.size
    sample = np.abs(flat[:: (size // _SAMPLE) | 1])
    expected = sample.size * k / size
    rank = int(expected + 4.0 * math.sqrt(expected)) + 1
    if rank >= sample.size:
        return None
    bound = np.partition(sample, sample.size - rank)[sample.size - rank]
    below = np.empty(block.size, dtype=bool)
    found, magnitudes, count = [], [], 0
    for lo in range(0, size, block.size):
        hits, mags = _not_below(flat, lo, block, below, bound)
        found.append(hits)
        magnitudes.append(mags)
        count += hits.size
        if count > 4 * k:
            return None
    if count < k:
        return None
    return np.concatenate(found)[_largest(np.concatenate(magnitudes), k)]


def _select_from_pool(flat: np.ndarray, k: int, block: np.ndarray) -> np.ndarray:
    """Exact top-k in one pass that holds at most ``4k`` candidates plus a block.

    ``|x|`` block by block into ``block``; past ``4k`` candidates the pool
    is cut back to its ``k`` largest and the bar for entering it raised to
    the k-th of them. The fall-back for a sampled bound that was wrong.
    """
    size = flat.size
    bound = -np.inf
    below = np.empty(block.size, dtype=bool)
    found, magnitudes, count = [], [], 0
    for lo in range(0, size, block.size):
        hits, mags = _not_below(flat, lo, block, below, bound)
        found.append(hits)
        magnitudes.append(mags)
        count += hits.size
        if count > 4 * k:
            pool = np.concatenate(magnitudes)
            keep = _largest(pool, k)  # keep[0] holds the k-th largest
            found, magnitudes = [np.concatenate(found)[keep]], [pool[keep]]
            bound, count = magnitudes[0][0], k
    return np.concatenate(found)[_largest(np.concatenate(magnitudes), k)]


def topk_select(
    flat: np.ndarray, k: int, scratch: Optional[np.ndarray] = None
) -> np.ndarray:
    """The set :func:`exact_topk_mask` selects, without sorting the vector.

    Exact on the kernel's path and on its fall-backs, NaN and +-inf
    included (only *which* of several equal magnitudes at the k-th place is
    taken may differ, as between two ``argpartition`` calls). ``flat`` is
    only read; ``scratch`` is storage in ``flat``'s dtype the call may
    overwrite. The kernel's passes use its first :data:`SELECT_BLOCK`
    elements, and where the sampled bound was wrong it keeps a pool of
    candidates pruned back to ``k`` in one more pass, so it allocates
    nothing O(size): the Top-k aggregator (DGC included) passes one block.
    Below the kernel's size, or for ``k`` above an eighth of it, the
    selection is the oracle's one ``argpartition``, whose ``|flat|`` goes
    into ``scratch`` when it holds ``flat.size``.
    """
    size = flat.size
    trivial = _trivial_selection(size, k)
    if trivial is not None:
        return trivial
    if scratch is None:
        scratch = np.empty(min(size, SELECT_BLOCK), flat.dtype)
    if size >= _KERNEL_MIN_SIZE and 8 * k <= size:
        block = scratch[:SELECT_BLOCK]
        selected = _select_above_sampled_bound(flat, k, block)
        if selected is None:
            selected = _select_from_pool(flat, k, block)
        return selected
    return _largest(_magnitudes(flat, scratch), k)


def _magnitudes(flat: np.ndarray, scratch: Optional[np.ndarray]) -> np.ndarray:
    """``|flat|``, in ``scratch`` when it is large enough."""
    if scratch is not None and scratch.size >= flat.size:
        return np.abs(flat, out=scratch[: flat.size])
    return np.abs(flat)


def sampled_threshold_topk_mask(
    flat: np.ndarray,
    k: int,
    rng: np.random.Generator,
    sample_size: int = 4096,
    max_rounds: int = 20,
    tolerance: float = 0.3,
    scratch: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Approximate top-k via sampled-threshold binary search.

    Samples ``sample_size`` magnitudes, then binary-searches a threshold
    whose exceed-count lands within ``(1 +/- tolerance) * k``, re-measuring
    the true exceed count each round. Returns the indices above the final
    threshold — between ``(1-tolerance)k`` and ``(1+tolerance)k`` of them in
    the common case, mirroring the inexactness of the paper's multi-sampling
    selection. ``scratch`` is :func:`topk_select`'s: it receives ``|flat|``
    when it holds ``flat.size`` elements.
    """
    size = flat.size
    trivial = _trivial_selection(size, k)
    if trivial is not None:
        return trivial
    magnitudes = _magnitudes(flat, scratch)
    sample = magnitudes
    if size > sample_size:
        sample = magnitudes[rng.integers(0, size, size=sample_size)]
    # Initial threshold from the sample quantile matching a k/size tail.
    tail_fraction = k / size
    low, high = 0.0, float(magnitudes.max())
    threshold = float(np.quantile(sample, 1.0 - tail_fraction))
    for _ in range(max_rounds):
        count = np.count_nonzero(magnitudes > threshold)
        if (1.0 - tolerance) * k <= count <= (1.0 + tolerance) * k:
            break
        if count > k:  # threshold too low
            low = threshold
        else:  # threshold too high
            high = threshold
        threshold = 0.5 * (low + high)
    idx = np.nonzero(magnitudes > threshold)[0]
    if idx.size == 0:
        # Degenerate (all elements equal): fall back to exact selection.
        return _largest(magnitudes, k)
    cap = int((1.0 + tolerance) * k)
    if idx.size > cap:
        # Cap the payload like real implementations do.
        idx = idx[_largest(magnitudes[idx], cap)]
    return idx.astype(np.int64, copy=False)


class TopkCompressor:
    """Per-worker Top-k compressor with error feedback.

    Args:
        ratio: fraction of elements to keep (the paper uses 0.001, i.e.
            1000x compression).
        selection: ``"exact"`` or ``"sampled"`` (multi-sampling threshold).
        use_error_feedback: leave the unsent residual in the compressed
            vector (see :meth:`compress`).
        rng: sampling stream for the threshold estimator.

    ``velocity`` is DGC's per-worker velocity ``v``, which a Top-k
    aggregator with momentum correction accumulates and selects on
    (``None`` until its first step, and after :meth:`reset`).
    """

    def __init__(
        self,
        ratio: float = 0.001,
        selection: str = "exact",
        use_error_feedback: bool = True,
        rng: Optional[np.random.Generator] = None,
    ):
        if not 0.0 < ratio <= 1.0:
            raise ValueError(f"ratio must be in (0, 1], got {ratio}")
        if selection not in ("exact", "sampled"):
            raise ValueError(f"unknown selection strategy {selection!r}")
        self.ratio = ratio
        self.selection = selection
        self.use_error_feedback = use_error_feedback
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.velocity: Optional[np.ndarray] = None

    def reset(self) -> None:
        """Drop the velocity (rollback / contaminated-state recovery)."""
        self.velocity = None

    def select(
        self, flat: np.ndarray, scratch: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Top-k coordinate selection over an (EF-corrected) flat vector.

        One call consumes at most one draw from the sampling stream, so a
        caller that selects and zeroes itself (the aggregator) does it
        bit-identically to :meth:`compress`. ``scratch`` is
        :func:`topk_select`'s: storage the call may overwrite.
        """
        k = select_count(self.ratio, flat.size)
        if self.selection == "exact":
            return topk_select(flat, k, scratch)
        return sampled_threshold_topk_mask(flat, k, self.rng, scratch=scratch)

    def compress(self, vector: np.ndarray) -> SparsePayload:
        """Sparsify ``vector`` to ~ratio*size elements.

        With error feedback ``vector`` is the caller's accumulator (the
        residual plus this step's gradient; writable, C-contiguous): the
        sent entries are zeroed in it, leaving the next residual. Without
        error feedback it is only read.
        """
        flat = vector.reshape(-1)
        idx = self.select(flat)
        values = flat[idx]
        if self.use_error_feedback:
            flat[idx] = 0.0  # sent; the rest stays behind, in place
        return SparsePayload(indices=idx, values=values, num_elements=flat.size)


def sparse_aggregate(
    payloads: List[SparsePayload],
    shape: Tuple[int, ...],
    average: bool = True,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Sum gathered sparse payloads into a dense tensor (optionally mean).

    The sum is in the values' dtype. ``out``, a flat buffer of the dense
    size in that dtype, is cleared and scatter-added into instead of a new
    tensor (the result is a view of it).
    """
    if not payloads:
        raise ValueError("need at least one payload")
    num_elements = payloads[0].num_elements
    dtype = payloads[0].values.dtype
    dense = np.empty(num_elements, dtype) if out is None else out
    if dense.shape != (num_elements,) or dense.dtype != dtype:
        raise ValueError(
            f"out must be flat {dtype}[{num_elements}], got {out.dtype} {out.shape}"
        )
    dense.fill(0.0)
    for payload in payloads:
        if payload.num_elements != num_elements:
            raise ValueError("payload dense sizes disagree across workers")
        np.add.at(dense, payload.indices, payload.values)
    if average:
        dense /= len(payloads)
    return dense.reshape(shape)
