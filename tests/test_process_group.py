"""ProcessGroup wrapper: API, averaging, traffic bookkeeping."""

import numpy as np
import pytest

from repro.comm import ProcessGroup


class TestProcessGroup:
    def test_all_reduce_sum_and_average(self, rng):
        group = ProcessGroup(3)
        bufs = [rng.normal(size=8) for _ in range(3)]
        summed = group.all_reduce(bufs)
        np.testing.assert_allclose(summed[0], sum(bufs), rtol=1e-10)
        averaged = group.all_reduce(bufs, average=True)
        np.testing.assert_allclose(averaged[0], sum(bufs) / 3, rtol=1e-10)

    def test_world_size_validation(self):
        with pytest.raises(ValueError, match="world_size"):
            ProcessGroup(0)

    def test_wrong_buffer_count_rejected(self, rng):
        group = ProcessGroup(4)
        with pytest.raises(ValueError, match="expected 4"):
            group.all_reduce([rng.normal(size=2)] * 3)

    def test_history_accumulates(self, rng):
        group = ProcessGroup(2)
        bufs = [rng.normal(size=16) for _ in range(2)]
        group.all_reduce(bufs)
        group.all_gather(bufs)
        group.broadcast(bufs)
        assert len(group.history) == 3
        assert group.total_bytes() > 0

    def test_reset_stats(self, rng):
        group = ProcessGroup(2)
        group.all_reduce([rng.normal(size=4)] * 2)
        group.reset_stats()
        assert group.total_bytes() == 0
        assert group.history == []

    def test_single_rank_group(self, rng):
        group = ProcessGroup(1)
        buf = rng.normal(size=5)
        out = group.all_reduce([buf], average=True)
        np.testing.assert_allclose(out[0], buf)
