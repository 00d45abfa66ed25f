"""Collective communication algorithms over in-process per-rank buffers.

A "collective" here takes one numpy array per rank and returns the per-rank
results, exactly as if ``world_size`` processes had each called the collective
on their own buffer. The ring all-reduce is implemented as the textbook
bandwidth-optimal algorithm (Thakur et al. [10] in the paper): a
reduce-scatter phase of ``p - 1`` steps followed by an all-gather phase of
``p - 1`` steps, with the buffer split into ``p`` chunks. Data genuinely moves
between per-rank buffers step by step; nothing takes the shortcut of a global
sum, so tests can check both the numerics and the traffic accounting.

All-reduce exists three times, on purpose: :func:`all_reduce_ring` is the
step-wise schedule and :func:`all_reduce_naive` the gather-to-root sum — the
two reference implementations the tests compare against (and the resilient
group's fallback) — and :func:`all_reduce_inplace` is the one kernel every
:class:`~repro.comm.process_group.ProcessGroup` all-reduce runs: flat or
hierarchical, monolithic or one bucket of a fused buffer.

Training issues the in-place all-reduce and :func:`all_gather` per step
and a :func:`broadcast` per admitted rank.

Traffic accounting: each collective returns a :class:`CollectiveStats`
recording bytes sent per rank and the step count, which the test suite uses to
verify the communication-complexity column of the paper's Table II
(``2(p-1)/p * N`` elements per rank for ring all-reduce, ``(p-1) * N`` per
rank for all-gather).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.comm.hierarchical import hierarchical_steps, hierarchical_traffic
from repro.comm.topology import ClusterTopology


@dataclass
class CollectiveStats:
    """Measured traffic of one collective call.

    Attributes:
        algorithm: name of the collective algorithm (``allreduce_ring``,
            ``allreduce_hierarchical``, ``allreduce_naive``, ``all_gather``
            or ``broadcast``).
        world_size: number of participating ranks.
        bytes_sent_per_rank: bytes each rank pushed onto the wire. The ring
            all-reduce charges every rank about the same; a broadcast's
            last hop, the rank before the root, sends nothing.
        steps: number of communication rounds (each round is one send/recv
            per rank, all rings progressing in parallel).
        delay_s: simulated extra wall time attributed to this call by the
            fault layer (straggler waits, retry backoff); 0 for clean calls.
    """

    algorithm: str
    world_size: int
    bytes_sent_per_rank: List[int] = field(default_factory=list)
    steps: int = 0
    delay_s: float = 0.0

    @property
    def total_bytes(self) -> int:
        """Aggregate bytes moved across all ranks."""
        return int(sum(self.bytes_sent_per_rank))


def _check_inputs(buffers: Sequence[np.ndarray]) -> Tuple[int, Tuple[int, ...]]:
    """Validate per-rank buffers and return (world_size, shape)."""
    if len(buffers) == 0:
        raise ValueError("collective requires at least one rank buffer")
    shape = buffers[0].shape
    dtype = buffers[0].dtype
    for rank, buf in enumerate(buffers):
        if buf.shape != shape:
            raise ValueError(
                f"rank {rank} buffer shape {buf.shape} != rank 0 shape {shape}"
            )
        if buf.dtype != dtype:
            raise ValueError(
                f"rank {rank} buffer dtype {buf.dtype} != rank 0 dtype {dtype}"
            )
    return len(buffers), shape


def _check_dtypes(buffers: Sequence[np.ndarray]) -> int:
    """Validate per-rank buffers whose *shapes* may legitimately differ.

    Used by :func:`all_gather`, whose payload sizes vary across ranks
    (Top-k threshold sampling); dtypes must still agree or the receiver
    would silently misinterpret the bytes. Returns the world size.
    """
    if len(buffers) == 0:
        raise ValueError("collective requires at least one rank buffer")
    dtype = buffers[0].dtype
    for rank, buf in enumerate(buffers[1:], start=1):
        if buf.dtype != dtype:
            raise ValueError(
                f"rank {rank} buffer dtype {buf.dtype} != rank 0 dtype {dtype}"
            )
    return len(buffers)


def _chunk_bounds(length: int, num_chunks: int) -> List[Tuple[int, int]]:
    """Split ``range(length)`` into ``num_chunks`` contiguous chunks.

    The first ``length % num_chunks`` chunks get one extra element, matching
    how NCCL pads uneven divisions. Empty chunks are allowed when
    ``length < num_chunks``.
    """
    base = length // num_chunks
    extra = length % num_chunks
    bounds = []
    start = 0
    for idx in range(num_chunks):
        size = base + (1 if idx < extra else 0)
        bounds.append((start, start + size))
        start += size
    return bounds


def work_dtype(dtype) -> np.dtype:
    """The dtype the copying collectives sum ``dtype`` buffers in: their
    own when floating (so a copying sum has the bits of the in-place
    kernel on the same data), float64 otherwise."""
    dtype = np.dtype(dtype)
    return dtype if dtype.kind == "f" else np.dtype(np.float64)


def all_reduce_naive(
    buffers: Sequence[np.ndarray],
) -> Tuple[List[np.ndarray], CollectiveStats]:
    """Reference all-reduce: gather-to-root, sum, broadcast.

    The correctness oracle for :func:`all_reduce_ring`, the "parameter
    server"-style baseline whose traffic is linear in ``p`` at the root, and
    the resilient group's fallback once the ring is abandoned.
    """
    world_size, _ = _check_inputs(buffers)
    dtype = work_dtype(buffers[0].dtype)
    total = buffers[0].astype(dtype, copy=True)
    for buf in buffers[1:]:
        total = total + buf.astype(dtype)
    result = total.astype(buffers[0].dtype)
    nbytes = result.nbytes
    stats = CollectiveStats(
        algorithm="allreduce_naive",
        world_size=world_size,
        # Non-root ranks send once to root; root sends the result back p-1
        # times. Rank 0 plays root.
        bytes_sent_per_rank=[nbytes * (world_size - 1)]
        + [nbytes] * (world_size - 1),
        steps=2,
    )
    return [result.copy() for _ in range(world_size)], stats


def all_reduce_ring(
    buffers: Sequence[np.ndarray],
) -> Tuple[List[np.ndarray], CollectiveStats]:
    """Bandwidth-optimal ring all-reduce (sum) over per-rank buffers.

    Phase 1 (reduce-scatter): in step ``s``, rank ``r`` sends chunk
    ``(r - s) mod p`` to rank ``r + 1`` which accumulates it. After ``p - 1``
    steps rank ``r`` owns the fully reduced chunk ``(r + 1) mod p``.

    Phase 2 (all-gather): reduced chunks circulate around the ring for
    another ``p - 1`` steps until every rank holds the full reduced buffer.

    Per-rank traffic is ``2 * (p - 1) / p * N`` elements — the Table II
    figure for S-SGD and Power-SGD communication.
    """
    world_size, shape = _check_inputs(buffers)
    if world_size == 1:
        out = [buffers[0].copy()]
        return out, CollectiveStats("allreduce_ring", 1, [0], 0)

    dtype = work_dtype(buffers[0].dtype)
    flat = [buf.reshape(-1).astype(dtype, copy=True) for buf in buffers]
    length = flat[0].shape[0]
    bounds = _chunk_bounds(length, world_size)
    elem_bytes = buffers[0].dtype.itemsize
    sent = [0] * world_size

    # Reduce-scatter phase.
    for step in range(world_size - 1):
        # All sends in a step happen "simultaneously": snapshot the outgoing
        # chunks before applying any accumulation.
        outgoing = []
        for rank in range(world_size):
            chunk_idx = (rank - step) % world_size
            lo, hi = bounds[chunk_idx]
            outgoing.append((chunk_idx, flat[rank][lo:hi].copy()))
            sent[rank] += (hi - lo) * elem_bytes
        for rank in range(world_size):
            dst = (rank + 1) % world_size
            chunk_idx, payload = outgoing[rank]
            lo, hi = bounds[chunk_idx]
            flat[dst][lo:hi] += payload

    # All-gather phase: rank r owns reduced chunk (r + 1) mod p.
    for step in range(world_size - 1):
        outgoing = []
        for rank in range(world_size):
            chunk_idx = (rank + 1 - step) % world_size
            lo, hi = bounds[chunk_idx]
            outgoing.append((chunk_idx, flat[rank][lo:hi].copy()))
            sent[rank] += (hi - lo) * elem_bytes
        for rank in range(world_size):
            dst = (rank + 1) % world_size
            chunk_idx, payload = outgoing[rank]
            lo, hi = bounds[chunk_idx]
            flat[dst][lo:hi] = payload

    results = [
        arr.astype(buffers[0].dtype).reshape(shape) for arr in flat
    ]
    stats = CollectiveStats(
        algorithm="allreduce_ring",
        world_size=world_size,
        bytes_sent_per_rank=sent,
        steps=2 * (world_size - 1),
    )
    return results, stats


class RingScratch:
    """Preallocated accumulator storage for :func:`all_reduce_inplace`.

    The step-wise :func:`all_reduce_ring` allocates one chunk copy per rank
    per step. The in-place kernel folds each chunk into a row of this
    reusable block instead, so a steady-state training loop performs zero
    per-step allocations on the collective path. The block grows
    monotonically to the largest ``(rows, chunk)`` ever requested and is
    then reused for every later call (a call in another dtype starts it
    over in that one).
    """

    def __init__(self) -> None:
        self._block: np.ndarray = np.zeros((0, 0), dtype=np.float32)

    def get(self, rows: int, chunk: int, dtype) -> np.ndarray:
        """A ``(rows, chunk)`` view in ``dtype``, reallocating only to grow."""
        have_rows, have_cols = self._block.shape
        if self._block.dtype != dtype:
            have_rows = have_cols = 0
        if have_rows < rows or have_cols < chunk:
            self._block = np.zeros(
                (max(have_rows, rows), max(have_cols, chunk)), dtype=dtype
            )
        return self._block[:rows, :chunk]


def _segment_ring_traffic(
    seg_start: int,
    seg_len: int,
    total_length: int,
    world_size: int,
    elem_bytes: int,
) -> List[int]:
    """Per-rank bytes of the monolithic ring schedule restricted to a segment.

    In the reduce-scatter phase rank ``r`` sends every chunk except
    ``(r + 1) mod p`` (the one it ends up owning); in the all-gather phase
    every chunk except ``(r + 2) mod p``. A bucketed collective moves only
    each chunk's overlap with its segment, so summing this accounting over
    all buckets reproduces the monolithic ring traffic exactly.
    """
    bounds = _chunk_bounds(total_length, world_size)
    overlaps = [
        max(0, min(hi, seg_start + seg_len) - max(lo, seg_start))
        for lo, hi in bounds
    ]
    sent = [0] * world_size
    for rank in range(world_size):
        for chunk, overlap in enumerate(overlaps):
            if chunk != (rank + 1) % world_size:
                sent[rank] += overlap * elem_bytes
            if chunk != (rank + 2) % world_size:
                sent[rank] += overlap * elem_bytes
    return sent


def _fold_segment_(
    buffers: Sequence[np.ndarray],
    seg_start: int,
    total_length: int,
    scratch: RingScratch,
) -> None:
    """Sum a segment into every rank in the canonical flat-ring association.

    Per global chunk ``c`` of the ``total_length`` buffer, fold ranks
    ``c, c+1, ...`` (ascending, wrapping) into a scratch row, then write
    the row to every rank — the per-element order of :func:`all_reduce_ring`.
    """
    world_size = len(buffers)
    seg_len = buffers[0].shape[0]
    acc_row = scratch.get(1, max(1, seg_len), buffers[0].dtype)[0]
    for chunk, (lo, hi) in enumerate(_chunk_bounds(total_length, world_size)):
        olo = max(lo, seg_start)
        ohi = min(hi, seg_start + seg_len)
        if olo >= ohi:
            continue
        a, b = olo - seg_start, ohi - seg_start
        acc = acc_row[: b - a]
        np.copyto(acc, buffers[chunk % world_size][a:b])
        for hop in range(1, world_size):
            acc += buffers[(chunk + hop) % world_size][a:b]
        for rank in range(world_size):
            buffers[rank][a:b] = acc


def all_reduce_inplace(
    buffers: Sequence[np.ndarray],
    seg_start: int = 0,
    total_length: Optional[int] = None,
    topology: Optional[ClusterTopology] = None,
    scratch: Optional[RingScratch] = None,
    elem_bytes: Optional[int] = None,
) -> CollectiveStats:
    """The all-reduce (sum) kernel: reduces **into** ``buffers``.

    ``buffers`` are the per-rank views of elements
    ``[seg_start, seg_start + len)`` of a logical buffer of ``total_length``
    elements — a tensor-fusion bucket of an arena slab. The defaults make
    the views the whole buffer: monolithic is the zero-offset segment. On
    return every view holds the sum (like an NCCL in-place all-reduce); the
    per-rank payloads are destroyed, so a caller that must keep them reduces
    copies.

    **Values** never depend on how the call is cut up or routed. Each
    element of global chunk ``c`` (chunk bounds of ``total_length`` over
    ``len(buffers)`` ranks) is accumulated in ascending rank order starting
    at rank ``c`` — the association of the step-wise :func:`all_reduce_ring`.
    IEEE addition is commutative (only association changes results), so
    reducing every bucket of a slab in any order, with or without a
    ``topology``, is bit-identical to one fused ring over the slab. Every
    determinism check in this repo leans on that: a schedule that
    re-associated per bucket or per node would silently fork the trajectory
    of every compressed method.

    **Stats** account the wire schedule. Without a ``topology``: the flat
    ring restricted to the segment (``allreduce_ring``; per-segment bytes
    sum exactly to the monolithic ring's). With one: the two-level
    schedule of :mod:`repro.comm.hierarchical` scaled to the segment
    (``allreduce_hierarchical``). ``elem_bytes`` is the wire size of one
    element, by default the buffers' itemsize — callers reducing float64
    copies of integer payloads pass the payload's.

    Requirements: 1-D C-contiguous writable buffers of one floating dtype
    and equal length, no two of which alias (the sum runs in their dtype);
    ``len(buffers) == topology.world_size``.
    """
    world_size = len(buffers)
    if world_size == 0:
        raise ValueError("collective requires at least one rank buffer")
    if topology is not None and topology.world_size != world_size:
        raise ValueError(
            f"topology world size {topology.world_size} != "
            f"{world_size} rank buffers"
        )
    seg_len = buffers[0].size
    for rank, buf in enumerate(buffers):
        if buf.ndim != 1 or buf.shape[0] != seg_len:
            raise ValueError(
                f"rank {rank} buffer shape {buf.shape} != 1-D length {seg_len}"
            )
        if buf.dtype.kind != "f" or buf.dtype != buffers[0].dtype:
            raise ValueError(
                f"in-place all-reduce requires buffers of one floating dtype, "
                f"rank {rank} has {buf.dtype} (rank 0 {buffers[0].dtype})"
            )
        if not buf.flags.writeable or not buf.flags.c_contiguous:
            raise ValueError(
                f"rank {rank} buffer must be writable and C-contiguous"
            )
    if total_length is None:
        total_length = seg_len
    if elem_bytes is None:
        elem_bytes = buffers[0].dtype.itemsize
    if not 0 <= seg_start <= seg_start + seg_len <= total_length:
        raise ValueError(
            f"segment [{seg_start}, {seg_start + seg_len}) out of range for "
            f"total length {total_length}"
        )
    if world_size > 1:
        _fold_segment_(
            buffers, seg_start, total_length,
            scratch if scratch is not None else RingScratch(),
        )
    if topology is None:
        return CollectiveStats(
            "allreduce_ring", world_size,
            _segment_ring_traffic(
                seg_start, seg_len, total_length, world_size, elem_bytes
            ),
            steps=2 * (world_size - 1),
        )
    return CollectiveStats(
        "allreduce_hierarchical", world_size,
        hierarchical_traffic(seg_len, topology, elem_bytes),
        steps=hierarchical_steps(topology),
    )


def all_gather(
    buffers: Sequence[np.ndarray],
) -> Tuple[List[List[np.ndarray]], CollectiveStats]:
    """Ring all-gather: every rank receives every rank's buffer.

    Unlike all-reduce, per-rank inputs may have *different shapes* (Top-k
    payload sizes can differ by a few elements across ranks after threshold
    sampling), so the result is, for each rank, the list of all ranks'
    buffers in rank order.

    Per-rank traffic is ``(p - 1) * N_r`` bytes where ``N_r`` is that rank's
    own payload — the Table II all-gather figure that makes Sign-SGD and
    Top-k SGD scale linearly with ``p``.
    """
    world_size = _check_dtypes(buffers)
    sent = [0] * world_size

    # Each rank's buffer travels p-1 hops around the ring. Model the hops
    # explicitly for the traffic accounting, though the payload is immutable.
    holdings: List[List[np.ndarray]] = [
        [None] * world_size for _ in range(world_size)  # type: ignore[list-item]
    ]
    for rank in range(world_size):
        holdings[rank][rank] = buffers[rank].copy()
    for step in range(world_size - 1):
        moves = []
        for rank in range(world_size):
            src_idx = (rank - step) % world_size
            payload = holdings[rank][src_idx]
            assert payload is not None
            moves.append((src_idx, payload))
            sent[rank] += payload.nbytes
        for rank in range(world_size):
            dst = (rank + 1) % world_size
            src_idx, payload = moves[rank]
            holdings[dst][src_idx] = payload

    stats = CollectiveStats(
        algorithm="all_gather",
        world_size=world_size,
        bytes_sent_per_rank=sent,
        steps=max(0, world_size - 1),
    )
    return holdings, stats


def broadcast(
    buffers: Sequence[np.ndarray], root: int = 0
) -> Tuple[List[np.ndarray], CollectiveStats]:
    """Broadcast rank ``root``'s buffer to every rank (ring pipeline).

    Used to synchronize initial model weights across workers before training,
    exactly as ``torch.distributed.broadcast`` is used by DDP.
    """
    world_size, _ = _check_inputs(buffers)
    if not 0 <= root < world_size:
        raise ValueError(f"root {root} out of range for world size {world_size}")
    payload = buffers[root].copy()
    sent = [0] * world_size
    # Ring pipeline: root -> root+1 -> ... ; each intermediate forwards once.
    for hop in range(world_size - 1):
        sender = (root + hop) % world_size
        sent[sender] += payload.nbytes
    stats = CollectiveStats(
        algorithm="broadcast",
        world_size=world_size,
        bytes_sent_per_rank=sent,
        steps=max(0, world_size - 1),
    )
    return [payload.copy() for _ in range(world_size)], stats
