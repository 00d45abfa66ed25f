"""Two-level (hierarchical) all-reduce over a :class:`ClusterTopology`.

The schedule is the one :func:`repro.comm.topology
.hierarchical_allreduce_time` prices and the task-DAG builders in
:mod:`repro.sched.builders` model: an intra-node ring reduce-scatter
over each node's GPUs (fast link), an inter-node ring all-reduce over
the node leaders — all local shards crossing in parallel but sharing
each node's NIC — and an intra-node all-gather broadcasting the result
back down. Traffic and step accounting follow that two-level route:
``2 (g - 1)`` intra steps plus ``2 (nodes - 1)`` inter steps versus the
flat ring's ``2 (p - 1)``.

**Bit-identity contract.** Values reproduce the *canonical flat-ring
fold*: each element of global chunk ``c`` is accumulated in ascending
rank order starting at rank ``c`` — exactly the association of
:func:`repro.comm.collectives.all_reduce_ring_inplace`. This follows the
precedent of :func:`~repro.comm.collectives.all_reduce_ring_segment_`,
which likewise replays the monolithic association over a bucket while
accounting the schedule actually used: every determinism check in this
repo relies on collective results being invariant to *how* the bytes
moved, so a hierarchical execution that re-associated per level (summing
within nodes first) would silently fork the trajectory of every
compressed method. Keeping the canonical fold makes
``all_reduce_hierarchical_`` bit-identical to the flat ring — monolithic
and bucketed — which the eighth ``scripts/check_determinism.py`` check
enforces for all five bucket-capable methods.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.comm.collectives import (
    CollectiveStats,
    RingScratch,
    _fold_segment_,
)
from repro.comm.topology import ClusterTopology


def hierarchical_steps(topology: ClusterTopology) -> int:
    """Communication rounds of the two-level schedule."""
    return 2 * (topology.gpus_per_node - 1) + 2 * (topology.num_nodes - 1)


def hierarchical_traffic(
    elems: int, topology: ClusterTopology, elem_bytes: int
) -> List[int]:
    """Per-rank bytes of the two-level schedule for ``elems`` elements.

    Intra reduce-scatter and all-gather each move ``(g-1)/g`` of the
    buffer per rank on the fast link; the inter ring moves
    ``2 (nodes-1)/nodes`` of each rank's ``1/g`` shard. The schedule is
    symmetric (every rank drives its own shard through the inter ring),
    so all ranks send the same amount.
    """
    p = topology.world_size
    if p == 1 or elems == 0:
        return [0] * p
    g = topology.gpus_per_node
    nodes = topology.num_nodes
    intra = 2.0 * elems * (g - 1) / g
    inter = 2.0 * (elems / g) * (nodes - 1) / nodes
    per_rank = int(round((intra + inter) * elem_bytes))
    return [per_rank] * p


def _check_buffers(
    buffers: Sequence[np.ndarray], topology: ClusterTopology
) -> int:
    world_size = len(buffers)
    if world_size == 0:
        raise ValueError("collective requires at least one rank buffer")
    if world_size != topology.world_size:
        raise ValueError(
            f"topology world size {topology.world_size} != "
            f"{world_size} rank buffers"
        )
    length = buffers[0].shape[0] if buffers[0].ndim == 1 else -1
    for rank, buf in enumerate(buffers):
        if buf.ndim != 1 or buf.shape[0] != length:
            raise ValueError(
                f"rank {rank} buffer shape {buf.shape} != 1-D length {length}"
            )
        if buf.dtype != np.float64:
            raise ValueError(
                f"hierarchical all-reduce requires float64 buffers, "
                f"rank {rank} has {buf.dtype}"
            )
        if not buf.flags.writeable or not buf.flags.c_contiguous:
            raise ValueError(
                f"rank {rank} buffer must be writable and C-contiguous"
            )
    return length


def all_reduce_hierarchical_(
    buffers: Sequence[np.ndarray],
    topology: ClusterTopology,
    scratch: Optional[RingScratch] = None,
) -> CollectiveStats:
    """In-place two-level all-reduce (sum) over ``topology``.

    Requirements match :func:`~repro.comm.collectives
    .all_reduce_ring_inplace`: one 1-D float64 C-contiguous writable
    buffer per rank, ``len(buffers) == topology.world_size``. On return
    every buffer holds the sum; results are bit-identical to the flat
    ring (see module docstring), stats carry the two-level traffic.
    """
    length = _check_buffers(buffers, topology)
    world_size = len(buffers)
    if world_size == 1:
        return CollectiveStats("allreduce_hierarchical", 1, [0], 0)
    scratch = scratch if scratch is not None else RingScratch()
    _fold_segment_(buffers, 0, length, scratch)
    return CollectiveStats(
        algorithm="allreduce_hierarchical",
        world_size=world_size,
        bytes_sent_per_rank=hierarchical_traffic(
            length, topology, buffers[0].dtype.itemsize
        ),
        steps=hierarchical_steps(topology),
    )


def all_reduce_hierarchical_segment_(
    buffers: Sequence[np.ndarray],
    seg_start: int,
    total_length: int,
    topology: ClusterTopology,
    scratch: Optional[RingScratch] = None,
) -> CollectiveStats:
    """In-place two-level all-reduce of one bucket of a fused buffer.

    The bucketed counterpart of :func:`all_reduce_hierarchical_`: chunk
    association comes from ``total_length`` (the monolithic buffer), so
    reducing every bucket of a slab reproduces the fused call — and the
    flat ring — bit-exactly. Traffic is the two-level schedule scaled to
    the segment's element count.
    """
    seg_len = _check_buffers(buffers, topology)
    if not 0 <= seg_start <= seg_start + seg_len <= total_length:
        raise ValueError(
            f"segment [{seg_start}, {seg_start + seg_len}) out of range for "
            f"total length {total_length}"
        )
    world_size = len(buffers)
    if world_size == 1:
        return CollectiveStats("allreduce_hierarchical_segment", 1, [0], 0)
    scratch = scratch if scratch is not None else RingScratch()
    _fold_segment_(buffers, seg_start, total_length, scratch)
    return CollectiveStats(
        algorithm="allreduce_hierarchical_segment",
        world_size=world_size,
        bytes_sent_per_rank=hierarchical_traffic(
            seg_len, topology, buffers[0].dtype.itemsize
        ),
        steps=hierarchical_steps(topology),
    )


def all_reduce_hierarchical(
    buffers: Sequence[np.ndarray],
    topology: ClusterTopology,
) -> Tuple[List[np.ndarray], CollectiveStats]:
    """Copying two-level all-reduce; inputs stay intact.

    For callers that may need to retransmit originals (resilient
    groups); returns per-rank result arrays shaped like the inputs.
    """
    shapes = [buf.shape for buf in buffers]
    work = [buf.reshape(-1).astype(np.float64, copy=True) for buf in buffers]
    stats = all_reduce_hierarchical_(work, topology)
    results = [arr.reshape(shape) for arr, shape in zip(work, shapes)]
    return results, stats


def all_reduce_hierarchical_segment(
    buffers: Sequence[np.ndarray],
    seg_start: int,
    total_length: int,
    topology: ClusterTopology,
) -> Tuple[List[np.ndarray], CollectiveStats]:
    """Copying variant of :func:`all_reduce_hierarchical_segment_`."""
    work = [buf.reshape(-1).astype(np.float64, copy=True) for buf in buffers]
    stats = all_reduce_hierarchical_segment_(
        work, seg_start, total_length, topology
    )
    return work, stats
