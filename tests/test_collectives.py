"""Collective algorithms: numerics and traffic accounting."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.comm import collectives as C


def _random_buffers(rng, world, shape):
    return [rng.normal(size=shape) for _ in range(world)]


class TestRingAllReduce:
    def test_matches_naive_sum(self, rng):
        bufs = _random_buffers(rng, 5, (7, 13))
        ring, _ = C.all_reduce_ring(bufs)
        naive, _ = C.all_reduce_naive(bufs)
        for r, n in zip(ring, naive):
            np.testing.assert_allclose(r, n, rtol=1e-10)

    def test_all_ranks_get_identical_results(self, rng):
        bufs = _random_buffers(rng, 4, (10,))
        ring, _ = C.all_reduce_ring(bufs)
        for result in ring[1:]:
            np.testing.assert_array_equal(result, ring[0])

    def test_single_rank_is_identity(self, rng):
        buf = rng.normal(size=(3, 3))
        results, stats = C.all_reduce_ring([buf])
        np.testing.assert_array_equal(results[0], buf)
        assert stats.bytes_sent_per_rank == [0]

    def test_does_not_mutate_inputs(self, rng):
        bufs = _random_buffers(rng, 3, (5,))
        copies = [b.copy() for b in bufs]
        C.all_reduce_ring(bufs)
        for buf, copy in zip(bufs, copies):
            np.testing.assert_array_equal(buf, copy)

    def test_traffic_matches_table2_formula(self, rng):
        """Per-rank traffic = 2 (p-1)/p * N elements (within chunk padding)."""
        world, n = 8, 4096
        bufs = _random_buffers(rng, world, (n,))
        _, stats = C.all_reduce_ring(bufs)
        expected = 2 * (world - 1) / world * n * 8  # float64 bytes
        for sent in stats.bytes_sent_per_rank:
            assert sent == pytest.approx(expected, rel=0.01)
        assert stats.steps == 2 * (world - 1)

    def test_uneven_buffer_smaller_than_world(self, rng):
        """A 3-element buffer across 5 ranks still reduces correctly."""
        bufs = _random_buffers(rng, 5, (3,))
        ring, _ = C.all_reduce_ring(bufs)
        np.testing.assert_allclose(ring[0], sum(bufs), rtol=1e-10)

    @settings(max_examples=25, deadline=None)
    @given(
        world=st.integers(1, 7),
        length=st.integers(1, 64),
        seed=st.integers(0, 2**16),
    )
    def test_property_ring_equals_sum(self, world, length, seed):
        rng = np.random.default_rng(seed)
        bufs = [rng.normal(size=length) for _ in range(world)]
        ring, _ = C.all_reduce_ring(bufs)
        expected = np.sum(bufs, axis=0)
        for result in ring:
            np.testing.assert_allclose(result, expected, rtol=1e-9, atol=1e-9)

    def test_shape_mismatch_rejected(self, rng):
        with pytest.raises(ValueError, match="shape"):
            C.all_reduce_ring([rng.normal(size=3), rng.normal(size=4)])

    def test_empty_rank_list_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            C.all_reduce_ring([])


class TestAllGather:
    def test_every_rank_sees_every_buffer(self, rng):
        world = 4
        bufs = _random_buffers(rng, world, (6,))
        gathered, _ = C.all_gather(bufs)
        for rank in range(world):
            for src in range(world):
                np.testing.assert_array_equal(gathered[rank][src], bufs[src])

    def test_heterogeneous_payload_sizes(self, rng):
        """Top-k payloads differ per rank; all-gather must support that."""
        bufs = [rng.normal(size=k) for k in (3, 5, 2, 7)]
        gathered, stats = C.all_gather(bufs)
        for rank in range(4):
            assert [g.size for g in gathered[rank]] == [3, 5, 2, 7]
        # Each rank forwards every payload (p-1 hops total per payload).
        assert stats.total_bytes == 3 * sum(b.nbytes for b in bufs)

    def test_traffic_linear_in_world_size(self, rng):
        """All-gather per-rank traffic grows with p (Table II)."""
        n = 256
        totals = []
        for world in (2, 4, 8):
            bufs = _random_buffers(rng, world, (n,))
            _, stats = C.all_gather(bufs)
            totals.append(stats.total_bytes / world)  # mean per rank
        assert totals[1] > totals[0]
        assert totals[2] > totals[1]
        # per-rank ~ (p-1) * n * 8 bytes
        assert totals[2] == pytest.approx(7 * n * 8, rel=0.05)


class TestBroadcast:
    def test_all_ranks_receive_root(self, rng):
        bufs = _random_buffers(rng, 5, (4, 4))
        out, stats = C.broadcast(bufs, root=2)
        for result in out:
            np.testing.assert_array_equal(result, bufs[2])
        # Ring pipeline: the root and the p - 2 ranks after it forward the
        # payload once; rank 1, the one before the root, sends nothing.
        nbytes = bufs[2].nbytes
        assert stats.bytes_sent_per_rank == [nbytes, 0, nbytes, nbytes, nbytes]
        assert stats.steps == 4

    def test_invalid_root_rejected(self, rng):
        with pytest.raises(ValueError, match="root"):
            C.broadcast(_random_buffers(rng, 3, (2,)), root=3)


class TestChunkBounds:
    def test_covers_range_without_overlap(self):
        bounds = C._chunk_bounds(17, 5)
        assert bounds[0][0] == 0
        assert bounds[-1][1] == 17
        for (lo1, hi1), (lo2, hi2) in zip(bounds, bounds[1:]):
            assert hi1 == lo2

    @settings(max_examples=50, deadline=None)
    @given(length=st.integers(0, 200), chunks=st.integers(1, 16))
    def test_property_partition(self, length, chunks):
        bounds = C._chunk_bounds(length, chunks)
        assert len(bounds) == chunks
        total = sum(hi - lo for lo, hi in bounds)
        assert total == length
        sizes = [hi - lo for lo, hi in bounds]
        assert max(sizes) - min(sizes) <= 1
