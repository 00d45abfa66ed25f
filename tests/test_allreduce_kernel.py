"""The one all-reduce kernel: every way of calling it, one set of checks.

``collectives.all_reduce_inplace`` is the only function that sums rank
buffers in place; flat vs hierarchical and monolithic vs bucketed are
arguments to it, and the four ``ProcessGroup.all_reduce*`` methods (plain
and resilient) are thin callers. The step-wise ``all_reduce_ring`` is the
oracle throughout.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.comm import collectives as C
from repro.comm.process_group import ProcessGroup
from repro.comm.topology import ClusterTopology
from repro.faults.resilient import ResilientProcessGroup
from repro.perf.counters import ALLOC_STATS

TOPO_2x2 = ClusterTopology(num_nodes=2, gpus_per_node=2)
TOPOLOGIES = pytest.mark.parametrize(
    "topology", [None, TOPO_2x2], ids=["flat", "2x2"]
)


def _topologies(world):
    """``None`` (flat) plus every nodes x gpus factorisation of ``world``."""
    return [None] + [
        ClusterTopology(num_nodes=world // g, gpus_per_node=g)
        for g in range(1, world + 1) if world % g == 0
    ]


@TOPOLOGIES
class TestKernelContract:
    def test_rejects_bad_buffers(self, topology):
        read_only = np.zeros(8)
        read_only.flags.writeable = False
        strided = np.zeros(16)[::2]
        for bad, match in [
            (np.zeros(8, dtype=np.float32), "float64"),
            (np.zeros(9), "length"),
            (np.zeros((2, 4)), "length"),
            (read_only, "writable"),
            (strided, "C-contiguous"),
        ]:
            buffers = [np.zeros(8), bad, np.zeros(8), np.zeros(8)]
            with pytest.raises(ValueError, match=match):
                C.all_reduce_inplace(buffers, topology=topology)
        with pytest.raises(ValueError, match="at least one"):
            C.all_reduce_inplace([], topology=topology)

    @pytest.mark.parametrize("seg_start,total", [(8, 10), (-1, 20), (1, None)])
    def test_rejects_out_of_range_segment(self, topology, seg_start, total):
        buffers = [np.zeros(10) for _ in range(4)]
        with pytest.raises(ValueError, match="out of range"):
            C.all_reduce_inplace(buffers, seg_start, total, topology)

    def test_empty_segment_is_noop(self, topology):
        data = [np.arange(5.0) + rank for rank in range(4)]
        before = [buf.copy() for buf in data]
        stats = C.all_reduce_inplace(
            [buf[2:2] for buf in data], 2, 5, topology
        )
        assert stats.total_bytes == 0
        for buf, want in zip(data, before):
            np.testing.assert_array_equal(buf, want)

    def test_scratch_is_reused_across_calls(self, topology, rng):
        scratch = C.RingScratch()
        C.all_reduce_inplace(
            [rng.normal(size=64) for _ in range(4)],
            topology=topology, scratch=scratch,
        )
        block = scratch._block
        for length in (64, 7, 1):
            C.all_reduce_inplace(
                [rng.normal(size=length) for _ in range(4)],
                topology=topology, scratch=scratch,
            )
            assert scratch._block is block

    def test_stats_name_the_schedule_accounted(self, topology):
        stats = C.all_reduce_inplace(
            [np.ones(10) for _ in range(4)], topology=topology, elem_bytes=4
        )
        assert stats.world_size == 4
        if topology is None:
            oracle = C.all_reduce_ring(
                [np.ones(10, dtype=np.float32) for _ in range(4)]
            )[1]
            assert stats.algorithm == "allreduce_ring"
            assert stats.steps == 6
            assert stats.bytes_sent_per_rank == oracle.bytes_sent_per_rank
        else:
            assert stats.algorithm == "allreduce_hierarchical"
            assert stats.steps == 4
            assert stats.bytes_sent_per_rank == [60] * 4


def test_world_size_one_is_identity_under_any_topology():
    for topology in _topologies(1):
        buf = np.arange(5.0)
        stats = C.all_reduce_inplace([buf], topology=topology)
        np.testing.assert_array_equal(buf, np.arange(5.0))
        assert (stats.bytes_sent_per_rank, stats.steps) == ([0], 0)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_any_partition_any_order_any_topology_matches_the_ring(data):
    """Bits equal the step-wise ring however the buffer is cut up or
    routed; flat per-segment stats sum exactly to the monolithic ring's."""
    world = data.draw(st.integers(1, 6), label="world")
    length = data.draw(st.integers(0, 64), label="length")
    inner = data.draw(
        st.lists(st.integers(0, length), max_size=6), label="cuts"
    )
    cuts = [0] + sorted(inner) + [length]  # repeats = empty segments
    segments = data.draw(
        st.permutations(list(zip(cuts, cuts[1:]))), label="segments"
    )
    topology = data.draw(st.sampled_from(_topologies(world)), label="topology")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="seed"))
    payloads = [rng.normal(size=length) * 1e3 for _ in range(world)]

    want, ring_stats = C.all_reduce_ring(payloads)
    flat = [buf.copy() for buf in payloads]
    routed = [buf.copy() for buf in payloads]
    sent = np.zeros(world, dtype=np.int64)
    for lo, hi in segments:
        stats = C.all_reduce_inplace([buf[lo:hi] for buf in flat], lo, length)
        sent += np.array(stats.bytes_sent_per_rank)
        assert stats.steps == ring_stats.steps
        C.all_reduce_inplace(
            [buf[lo:hi] for buf in routed], lo, length, topology
        )
    for rank in range(world):
        assert flat[rank].tobytes() == want[rank].tobytes()
        assert routed[rank].tobytes() == want[rank].tobytes()
    assert sent.tolist() == ring_stats.bytes_sent_per_rank


def _call(group, method, buffers):
    """Drive one of the four group methods over the whole buffer."""
    if "segment" in method:
        return getattr(group, method)(buffers, 0, buffers[0].size)
    return getattr(group, method)(buffers)


METHODS = ["all_reduce", "all_reduce_", "all_reduce_segment", "all_reduce_segment_"]


class TestGroupWrappers:
    @pytest.mark.parametrize("group_cls", [ProcessGroup, ResilientProcessGroup])
    @pytest.mark.parametrize("method", METHODS)
    def test_one_history_entry_per_call(self, group_cls, method, rng):
        """Each public method is one collective (one traced span), never a
        chain through another public method."""
        group = group_cls(3)
        _call(group, method, [rng.normal(size=12) for _ in range(3)])
        assert len(group.history) == 1

    @pytest.mark.parametrize("method", ["all_reduce", "all_reduce_segment"])
    def test_copying_pair_keeps_dtype_bits_and_shape_under_topology(
        self, method, rng
    ):
        """Regression: a topology used to turn float32 results into float64
        (different bits, 8 B/elem charged instead of 4)."""
        shape = (15,) if "segment" in method else (3, 5)
        payloads = [
            rng.normal(size=shape).astype(np.float32) for _ in range(4)
        ]
        originals = [buf.copy() for buf in payloads]
        flat = ProcessGroup(4)
        hier = ProcessGroup(4, topology=TOPO_2x2)
        want = _call(flat, method, payloads)
        got = _call(hier, method, payloads)
        oracle, oracle_stats = C.all_reduce_ring(payloads)
        for rank in range(4):
            assert got[rank].dtype == np.float32
            assert got[rank].shape == shape
            assert got[rank].tobytes() == want[rank].tobytes()
            assert got[rank].tobytes() == oracle[rank].tobytes()
            np.testing.assert_array_equal(payloads[rank], originals[rank])
        assert flat.history[-1].bytes_sent_per_rank == (
            oracle_stats.bytes_sent_per_rank
        )
        assert hier.history[-1].bytes_sent_per_rank == [90] * 4  # 22.5 x 4 B

    def test_copying_pair_rejects_mismatched_ranks(self):
        group = ProcessGroup(2)
        with pytest.raises(ValueError, match="shape"):
            group.all_reduce([np.zeros(4), np.zeros(5)])
        with pytest.raises(ValueError, match="dtype"):
            group.all_reduce([np.zeros(4), np.zeros(4, dtype=np.float32)])


class TestResilientTopology:
    """Regression: the resilient group accepted a topology and then
    accounted the flat ring for every call."""

    @pytest.mark.parametrize("method", METHODS)
    def test_healthy_call_accounts_the_topology(self, method, rng):
        payloads = [rng.normal(size=15) for _ in range(4)]
        plain = ProcessGroup(4, topology=TOPO_2x2)
        resilient = ResilientProcessGroup(4)
        resilient.set_topology(TOPO_2x2)
        want = _call(plain, method, [buf.copy() for buf in payloads])
        got = _call(resilient, method, [buf.copy() for buf in payloads])
        for rank in range(4):
            assert got[rank].tobytes() == want[rank].tobytes()
        ours, theirs = resilient.history[-1], plain.history[-1]
        assert ours.algorithm == theirs.algorithm == "allreduce_hierarchical"
        assert ours.steps == theirs.steps == 4
        assert ours.bytes_sent_per_rank == theirs.bytes_sent_per_rank

    @pytest.mark.parametrize("method", METHODS)
    def test_degraded_call_accounts_a_flat_ring_of_the_survivors(
        self, method, rng
    ):
        payloads = [rng.normal(size=15) for _ in range(4)]
        resilient = ResilientProcessGroup(4)
        resilient.set_topology(TOPO_2x2)
        resilient.mark_worker_failed(1)
        ALLOC_STATS.reset()
        got = _call(resilient, method, [buf.copy() for buf in payloads])
        assert ALLOC_STATS.bucket_copies == 1
        survivors = [payloads[rank] for rank in (0, 2, 3)]
        want, want_stats = C.all_reduce_ring(survivors)
        for rank in range(4):
            assert got[rank].tobytes() == want[0].tobytes()
        stats = resilient.history[-1]
        assert stats.algorithm == "allreduce_ring"
        assert stats.world_size == 3
        assert stats.steps == want_stats.steps
        assert stats.bytes_sent_per_rank == want_stats.bytes_sent_per_rank
