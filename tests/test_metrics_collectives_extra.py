"""The reduce/gather collectives."""

import numpy as np
import pytest

from repro.comm.collectives import gather, reduce


class TestReduce:
    def test_sum_at_root(self, rng):
        bufs = [rng.normal(size=(4, 3)) for _ in range(5)]
        result, stats = reduce(bufs, root=2)
        np.testing.assert_allclose(result, np.sum(bufs, axis=0), rtol=1e-10)
        assert stats.algorithm == "reduce"
        # Root sends nothing; others send once each up the tree.
        assert stats.bytes_sent_per_rank[2] == 0
        assert stats.total_bytes == 4 * bufs[0].nbytes

    def test_logarithmic_rounds(self, rng):
        _, stats = reduce([rng.normal(size=4) for _ in range(8)])
        assert stats.steps == 3

    def test_single_rank(self, rng):
        buf = rng.normal(size=3)
        result, stats = reduce([buf])
        np.testing.assert_array_equal(result, buf)
        assert stats.steps == 0

    def test_invalid_root(self, rng):
        with pytest.raises(ValueError, match="root"):
            reduce([rng.normal(size=2)] * 3, root=3)

    @pytest.mark.parametrize("world", [2, 3, 5, 7, 8])
    @pytest.mark.parametrize("root", [0, 1])
    def test_any_world_and_root(self, world, root, rng):
        bufs = [rng.normal(size=6) for _ in range(world)]
        result, _ = reduce(bufs, root=min(root, world - 1))
        np.testing.assert_allclose(result, np.sum(bufs, axis=0), rtol=1e-10)


class TestGather:
    def test_collects_heterogeneous_payloads(self, rng):
        bufs = [rng.normal(size=k) for k in (2, 5, 3)]
        gathered, stats = gather(bufs, root=1)
        for received, sent_buf in zip(gathered, bufs):
            np.testing.assert_array_equal(received, sent_buf)
        assert stats.bytes_sent_per_rank[1] == 0  # root sends nothing
        assert stats.total_bytes == bufs[0].nbytes + bufs[2].nbytes

    def test_invalid_root(self, rng):
        with pytest.raises(ValueError, match="root"):
            gather([rng.normal(size=2)] * 2, root=5)
