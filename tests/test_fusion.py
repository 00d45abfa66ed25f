"""Tensor-fusion bucket planning."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.fusion import DEFAULT_BUFFER_BYTES, partition_buckets, scaled_buffer_size


class TestPartition:
    def test_no_fusion_with_zero_buffer(self):
        assert partition_buckets([10, 20, 30], 0) == [(0, 1), (1, 2), (2, 3)]

    def test_single_bucket_when_everything_fits(self):
        assert partition_buckets([10, 20, 30], 1000) == [(0, 3)]

    def test_greedy_fill(self):
        # capacity 25: [10, 10] | [20] | [10, 10]
        assert partition_buckets([10, 10, 20, 10, 10], 25) == [(0, 2), (2, 3), (3, 5)]

    def test_oversized_tensor_travels_alone(self):
        assert partition_buckets([100, 5, 5], 10) == [(0, 1), (1, 3)]

    def test_empty_input(self):
        assert partition_buckets([], 10) == []

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            partition_buckets([10], -1)
        with pytest.raises(ValueError):
            partition_buckets([-5], 10)

    @settings(max_examples=50, deadline=None)
    @given(
        sizes=st.lists(st.floats(0, 1000), min_size=0, max_size=40),
        buffer=st.floats(0, 2000),
    )
    def test_property_buckets_partition_input(self, sizes, buffer):
        buckets = partition_buckets(sizes, buffer)
        if not sizes:
            assert buckets == []
            return
        assert buckets[0][0] == 0
        assert buckets[-1][1] == len(sizes)
        for (s1, e1), (s2, e2) in zip(buckets, buckets[1:]):
            assert e1 == s2
            assert s1 < e1
        if buffer > 0:
            for start, end in buckets:
                if end - start > 1:
                    assert sum(sizes[start:end]) <= buffer + 1e-9


class TestSharedPolicy:
    def test_default_buffer_matches_horovod_default(self):
        """The paper benchmarks against Horovod's 25MB fusion threshold;
        both the simulator and the real reducer inherit this constant."""
        assert DEFAULT_BUFFER_BYTES == 25 * 1024 * 1024

    def test_arena_layout_uses_the_same_partition(self):
        """The execution path (ArenaLayout) and the simulator must agree
        on bucketing: same sizes + same buffer => same bucket spans."""
        import numpy as np

        from repro.models.convnets import make_mlp
        from repro.perf.arena import GradientArena

        model = make_mlp(17, 9, 4, rng=np.random.default_rng(0))
        buffer_bytes = 60 * 8
        arena = GradientArena(model, 1, bucket_bytes=buffer_bytes)
        layout = arena.layout
        elems = [layout.size_of(name) for name in layout.names]
        starts = [0]
        for size in elems:
            starts.append(starts[-1] + size)
        index_spans = partition_buckets(
            [layout.dtype.itemsize * size for size in elems], buffer_bytes
        )
        expected = [(starts[s], starts[e]) for s, e in index_spans]
        assert list(layout.buckets) == expected


class TestScaledBuffer:
    def test_paper_example_resnet50(self):
        """25MB x (0.63MB / 97.5MB) ~ 0.16MB — the paper's §IV-B example."""
        mb = 1024 * 1024
        scaled = scaled_buffer_size(25 * mb, 0.63 * mb, 97.5 * mb)
        assert scaled == pytest.approx(0.1615 * mb, rel=0.01)

    def test_bucket_count_roughly_invariant(self):
        """Scaling the buffer by the compression rate keeps the number of
        buckets ~constant — the design's whole point."""
        raw_sizes = [5e6] * 20  # 100MB of gradients
        raw_buckets = partition_buckets(raw_sizes, 25e6)
        rate = 0.01
        compressed_sizes = [s * rate for s in raw_sizes]
        scaled = scaled_buffer_size(25e6, sum(compressed_sizes), sum(raw_sizes))
        compressed_buckets = partition_buckets(compressed_sizes, scaled)
        assert len(compressed_buckets) == len(raw_buckets)

    def test_validation(self):
        with pytest.raises(ValueError):
            scaled_buffer_size(-1, 1, 10)
        with pytest.raises(ValueError):
            scaled_buffer_size(10, -1, 10)
        with pytest.raises(ValueError):
            scaled_buffer_size(10, 1, 0)
