"""Top-k sparsification [Lin et al. DGC; Shi et al. MLSys'21].

Each worker keeps only the k largest-magnitude gradient elements and
transmits (values, indices) — ``2k`` numbers per worker (Table II). The
selected coordinates differ across workers, so the compressed tensors are
not additive and aggregation uses all-gather + local sparse summation.

Two selection strategies, matching §III-A of the paper:

- exact: full ``argpartition`` selection (the paper notes this is slow on
  GPUs);
- multiple sampling: estimate a magnitude threshold by binary search over a
  random sample of the tensor so that roughly k elements exceed it — the
  "multiple sampling uses binary search to find a close top-k threshold"
  approach attributed to [21].

Error feedback stores the unsent residual and adds it back next step
(Stich et al., "Sparsified SGD with memory").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np


@dataclass
class SparsePayload:
    """Wire format of one worker's sparsified tensor."""

    indices: np.ndarray  # int64 coordinates into the flattened tensor
    values: np.ndarray  # float values at those coordinates
    num_elements: int  # original dense size

    @property
    def nbytes(self) -> int:
        """Bytes on the wire: 4-byte index + 4-byte value per element."""
        return int(self.indices.size) * 8

    @property
    def k(self) -> int:
        return int(self.indices.size)


def exact_topk_mask(flat: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` largest-magnitude elements (exact)."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    k = min(k, flat.size)
    if k == 0:
        return np.zeros(0, dtype=np.int64)
    if k == flat.size:
        return np.arange(flat.size, dtype=np.int64)
    idx = np.argpartition(np.abs(flat), flat.size - k)[flat.size - k :]
    return idx.astype(np.int64)


def sampled_threshold_topk_mask(
    flat: np.ndarray,
    k: int,
    rng: np.random.Generator,
    sample_size: int = 4096,
    max_rounds: int = 20,
    tolerance: float = 0.3,
) -> np.ndarray:
    """Approximate top-k via sampled-threshold binary search.

    Samples ``sample_size`` magnitudes, then binary-searches a threshold
    whose exceed-count lands within ``(1 +/- tolerance) * k``, re-measuring
    the true exceed count each round. Returns the indices above the final
    threshold — between ``(1-tolerance)k`` and ``(1+tolerance)k`` of them in
    the common case, mirroring the inexactness of the paper's multi-sampling
    selection.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    size = flat.size
    k = min(k, size)
    if k == 0:
        return np.zeros(0, dtype=np.int64)
    if k >= size:
        return np.arange(size, dtype=np.int64)
    magnitudes = np.abs(flat)
    sample = magnitudes
    if size > sample_size:
        sample = magnitudes[rng.integers(0, size, size=sample_size)]
    # Initial threshold from the sample quantile matching a k/size tail.
    tail_fraction = k / size
    low, high = 0.0, float(magnitudes.max())
    threshold = float(np.quantile(sample, 1.0 - tail_fraction))
    for _ in range(max_rounds):
        count = int((magnitudes > threshold).sum())
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
        return exact_topk_mask(flat, k)
    if idx.size > int((1.0 + tolerance) * k):
        # Cap the payload like real implementations do.
        order = np.argsort(magnitudes[idx])[::-1][: int((1.0 + tolerance) * k)]
        idx = idx[order]
    return idx.astype(np.int64)


class TopkCompressor:
    """Per-worker Top-k compressor with error feedback.

    Args:
        ratio: fraction of elements to keep (the paper uses 0.001, i.e.
            1000x compression).
        selection: ``"exact"`` or ``"sampled"`` (multi-sampling threshold).
        use_error_feedback: keep and re-add the unsent residual.
        rng: sampling stream for the threshold estimator.
        min_k: lower bound on k so tiny tensors still send something.
    """

    def __init__(
        self,
        ratio: float = 0.001,
        selection: str = "exact",
        use_error_feedback: bool = True,
        rng: Optional[np.random.Generator] = None,
        min_k: int = 1,
    ):
        if not 0.0 < ratio <= 1.0:
            raise ValueError(f"ratio must be in (0, 1], got {ratio}")
        if selection not in ("exact", "sampled"):
            raise ValueError(f"unknown selection strategy {selection!r}")
        self.ratio = ratio
        self.selection = selection
        self.use_error_feedback = use_error_feedback
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.min_k = min_k
        self._error: Dict[str, np.ndarray] = {}

    def select(self, flat: np.ndarray) -> np.ndarray:
        """Top-k coordinate selection over an (EF-corrected) flat vector.

        One call consumes at most one draw from the sampling stream, so
        callers that stage the vector themselves (see :meth:`residual`)
        select bit-identically to :meth:`compress`.
        """
        k = max(self.min_k, int(round(self.ratio * flat.size)))
        if self.selection == "exact":
            return exact_topk_mask(flat, k)
        return sampled_threshold_topk_mask(flat, k, self.rng)

    def compress(self, name: str, grad: np.ndarray) -> SparsePayload:
        """Sparsify ``grad`` (plus stored residual) to ~ratio*size elements."""
        flat = grad.reshape(-1).astype(np.float64)
        if self.use_error_feedback:
            residual = self._error.get(name)
            if residual is not None:
                flat = flat + residual
        idx = self.select(flat)
        values = flat[idx]
        if self.use_error_feedback:
            residual = flat.copy()
            residual[idx] = 0.0
            self._error[name] = residual
        return SparsePayload(indices=idx, values=values, num_elements=flat.size)

    def residual(self, name: str, size: int) -> Optional[np.ndarray]:
        """The EF residual of ``name`` as one writable ``size``-vector.

        ``None`` with error feedback off. Callers that stage the gradient
        themselves (the aggregator adds it bucket by bucket) accumulate
        into this vector in place, :meth:`select` on it, and zero what they
        sent — the same arithmetic as :meth:`compress` without a second
        full-size copy beside the residual. A fresh residual is filled with
        ``-0.0``, IEEE-754's additive identity, so the first ``+=``
        reproduces the gradient bit for bit, signed zeros included.
        """
        if not self.use_error_feedback:
            return None
        residual = self._error.get(name)
        if residual is None or residual.size != size:
            residual = self._error[name] = np.full(size, -0.0)
        return residual

    def reset(self) -> None:
        """Drop accumulated error state."""
        self._error.clear()


def sparse_aggregate(
    payloads: List[SparsePayload],
    shape: Tuple[int, ...],
    average: bool = True,
    validate: bool = False,
) -> np.ndarray:
    """Sum gathered sparse payloads into a dense tensor (optionally mean).

    With ``validate`` each payload's values are checked finite before the
    scatter-add (cost: one pass over the ~k received values per worker), so
    a corrupted payload fails loudly instead of silently poisoning the
    dense gradient.
    """
    if not payloads:
        raise ValueError("need at least one payload")
    if validate:
        from repro.utils.validation import assert_finite

        for worker, payload in enumerate(payloads):
            assert_finite(payload.values, f"topk payload values (worker {worker})")
    num_elements = payloads[0].num_elements
    dense = np.zeros(num_elements)
    for payload in payloads:
        if payload.num_elements != num_elements:
            raise ValueError("payload dense sizes disagree across workers")
        np.add.at(dense, payload.indices, payload.values)
    if average:
        dense /= len(payloads)
    return dense.reshape(shape)
