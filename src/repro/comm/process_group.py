"""Process-group abstraction over the in-process collectives.

The distributed optimizers talk to a :class:`ProcessGroup` rather than to the
collective functions directly. The group tracks cumulative traffic so
experiments can report measured communication volume per iteration, which is
how the test suite validates the complexity column of Table II.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.comm import collectives
from repro.comm.topology import ClusterTopology


class ProcessGroup:
    """A group of ``world_size`` simulated workers sharing collectives.

    The group is *lockstep synchronous*: a collective call supplies the
    buffer of every rank at once and returns every rank's result, mirroring
    how synchronous data-parallel training drives NCCL. This keeps the
    numerics of S-SGD / compression algorithms exact without real processes.

    Attributes:
        world_size: number of ranks.
        history: list of :class:`~repro.comm.collectives.CollectiveStats`
            for every collective executed through this group.
    """

    def __init__(
        self,
        world_size: int,
        topology: Optional[ClusterTopology] = None,
    ):
        if world_size < 1:
            raise ValueError(f"world_size must be >= 1, got {world_size}")
        self.world_size = world_size
        self.history: List[collectives.CollectiveStats] = []
        # Reusable accumulator block for the all-reduce kernel; grows to
        # the largest call ever made and is then allocation-free per step.
        self._ring_scratch = collectives.RingScratch()
        self.topology: Optional[ClusterTopology] = None
        if topology is not None:
            self.set_topology(topology)

    def set_topology(self, topology: Optional[ClusterTopology]) -> None:
        """Route all-reduces over a two-level node topology (or back to flat).

        With a topology set, :meth:`all_reduce` / :meth:`all_reduce_` and
        their segment variants account the hierarchical schedule of
        :mod:`repro.comm.hierarchical` — bit-identical values, two-level
        traffic and step counts. ``None`` restores the flat ring.
        """
        if topology is not None and topology.world_size != self.world_size:
            raise ValueError(
                f"topology world size {topology.world_size} != "
                f"group world size {self.world_size}"
            )
        self.topology = topology

    def begin_step(self, sync: Optional[Callable] = None) -> List[int]:
        """The roster of the next step: a fixed world runs on every rank.

        :class:`~repro.faults.resilient.ResilientProcessGroup` commits its
        roster changes here and calls ``sync`` per admission; a fixed world
        never admits, so ``sync`` never fires.
        """
        return list(range(self.world_size))

    def _check_world(self, buffers: Sequence[np.ndarray]) -> None:
        if len(buffers) != self.world_size:
            raise ValueError(
                f"expected {self.world_size} rank buffers, got {len(buffers)}"
            )

    def _all_reduce(
        self,
        buffers: Sequence[np.ndarray],
        seg_start: int,
        total_length: Optional[int],
        average: bool,
        inplace: bool,
    ) -> Sequence[np.ndarray]:
        """The one all-reduce behind the four public methods below.

        Runs :func:`repro.comm.collectives.all_reduce_inplace` over the
        group's topology — on ``buffers`` themselves when ``inplace``, else
        on flat copies in :func:`~repro.comm.collectives.work_dtype` that
        are reshaped and cast back to the input dtype (whose itemsize is
        what the traffic stats charge).
        """
        self._check_world(buffers)
        work = buffers
        if not inplace:
            collectives._check_inputs(buffers)
            dtype = collectives.work_dtype(buffers[0].dtype)
            work = [buf.reshape(-1).astype(dtype) for buf in buffers]
        stats = collectives.all_reduce_inplace(
            work, seg_start, total_length, self.topology, self._ring_scratch,
            elem_bytes=buffers[0].dtype.itemsize,
        )
        self.history.append(stats)
        if not inplace:
            results = [
                res.astype(buf.dtype, copy=False).reshape(buf.shape)
                for res, buf in zip(work, buffers)
            ]
            if average:
                results = [res / self.world_size for res in results]
            return results
        if average:
            for buf in buffers:
                buf /= self.world_size
        return buffers

    def all_reduce(
        self, buffers: Sequence[np.ndarray], average: bool = False
    ) -> List[np.ndarray]:
        """All-reduce (sum, or mean when ``average`` is set) of any-shape,
        any-dtype buffers; inputs stay intact, results keep shape and dtype.

        With a topology set (see :meth:`set_topology`) the two-level
        schedule is accounted instead of the flat ring — same results
        bit-for-bit.
        """
        return self._all_reduce(buffers, 0, None, average, inplace=False)

    def all_reduce_(
        self, buffers: Sequence[np.ndarray], average: bool = False
    ) -> Sequence[np.ndarray]:
        """In-place all-reduce: aggregates **into** ``buffers``.

        Bit-identical to :meth:`all_reduce` but allocation-free: the
        per-rank buffers are reduced where they live. On return every
        buffer holds the reduced result; the original payloads are
        destroyed.

        Buffers must be distinct 1-D contiguous arrays of one floating
        dtype — the fused arena slabs of
        :class:`repro.perf.arena.GradientArena`.
        """
        return self._all_reduce(buffers, 0, None, average, inplace=True)

    def all_reduce_segment(
        self,
        buffers: Sequence[np.ndarray],
        seg_start: int,
        total_length: int,
        average: bool = False,
    ) -> List[np.ndarray]:
        """All-reduce of one bucket of a logical fused buffer (copying).

        ``buffers`` are per-rank views of elements
        ``[seg_start, seg_start + len)`` of a logical ``total_length``-element
        buffer; the ring chunk schedule comes from ``total_length``, so
        reducing every bucket reproduces one fused :meth:`all_reduce` over
        the whole buffer bit-exactly (see
        :func:`repro.comm.collectives.all_reduce_inplace`).
        """
        return self._all_reduce(
            buffers, seg_start, total_length, average, inplace=False
        )

    def all_reduce_segment_(
        self,
        buffers: Sequence[np.ndarray],
        seg_start: int,
        total_length: int,
        average: bool = False,
    ) -> Sequence[np.ndarray]:
        """In-place bucket all-reduce: reduces **into** the segment views.

        The bucketed counterpart of :meth:`all_reduce_` and the call every
        aggregator makes: zero-copy on arena bucket views, destroys the
        per-rank payloads, and is bit-identical to the fused in-place call
        when every bucket of the slab goes through it.
        """
        return self._all_reduce(
            buffers, seg_start, total_length, average, inplace=True
        )

    def all_gather(self, buffers: Sequence[np.ndarray]) -> List[List[np.ndarray]]:
        """Ring all-gather: per rank, every rank's payload in rank order
        (shapes may differ). A degraded call of a resilient group leaves
        ``None`` where a payload was not delivered."""
        self._check_world(buffers)
        results, stats = collectives.all_gather(buffers)
        self.history.append(stats)
        return results

    def broadcast(
        self, buffers: Sequence[np.ndarray], root: int = 0
    ) -> List[np.ndarray]:
        """Broadcast rank ``root``'s buffer to all ranks."""
        self._check_world(buffers)
        results, stats = collectives.broadcast(buffers, root=root)
        self.history.append(stats)
        return results

    # ------------------------------------------------------------------
    # Traffic introspection
    # ------------------------------------------------------------------
    def total_bytes(self) -> int:
        """Total bytes sent by all ranks since construction / last reset."""
        return sum(stats.total_bytes for stats in self.history)

    def reset_stats(self) -> None:
        """Clear the collective history (e.g. between measured iterations)."""
        self.history.clear()
