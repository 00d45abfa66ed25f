"""Top-k sparsification: selection, sampled thresholds, aggregation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.compression.topk import (
    TopkCompressor,
    exact_topk_mask,
    sampled_threshold_topk_mask,
    sparse_aggregate,
)


class TestExactSelection:
    def test_selects_largest_magnitudes(self):
        flat = np.array([0.1, -5.0, 2.0, -0.01, 3.0])
        idx = exact_topk_mask(flat, 2)
        assert set(idx) == {1, 4}

    def test_k_zero_and_full(self, rng):
        flat = rng.normal(size=10)
        assert exact_topk_mask(flat, 0).size == 0
        assert set(exact_topk_mask(flat, 10)) == set(range(10))
        assert set(exact_topk_mask(flat, 99)) == set(range(10))

    def test_negative_k_rejected(self, rng):
        with pytest.raises(ValueError, match="k"):
            exact_topk_mask(rng.normal(size=5), -1)

    @settings(max_examples=30, deadline=None)
    @given(size=st.integers(1, 100), seed=st.integers(0, 5000))
    def test_property_selected_dominate_unselected(self, size, seed):
        rng = np.random.default_rng(seed)
        flat = rng.normal(size=size)
        k = max(1, size // 4)
        idx = exact_topk_mask(flat, k)
        selected_min = np.abs(flat[idx]).min()
        unselected = np.delete(np.abs(flat), idx)
        if unselected.size:
            assert selected_min >= unselected.max() - 1e-12


class TestSampledThreshold:
    def test_count_near_k(self, rng):
        flat = rng.normal(size=100_000)
        k = 1000
        idx = sampled_threshold_topk_mask(flat, k, rng)
        assert 0.5 * k <= idx.size <= 1.4 * k

    def test_selected_are_large(self, rng):
        flat = rng.normal(size=50_000)
        idx = sampled_threshold_topk_mask(flat, 500, rng)
        # Median of selected magnitudes far above overall median.
        assert np.median(np.abs(flat[idx])) > 3 * np.median(np.abs(flat))

    def test_constant_tensor_falls_back(self, rng):
        flat = np.ones(1000)
        idx = sampled_threshold_topk_mask(flat, 10, rng)
        assert idx.size >= 10

    def test_k_bounds(self, rng):
        flat = rng.normal(size=100)
        assert sampled_threshold_topk_mask(flat, 0, rng).size == 0
        assert sampled_threshold_topk_mask(flat, 100, rng).size == 100


class TestCompressor:
    def test_ratio_controls_k(self, rng):
        comp = TopkCompressor(ratio=0.01, use_error_feedback=False)
        payload = comp.compress(rng.normal(size=10_000))
        assert payload.k == 100

    def test_error_feedback_keeps_unsent_mass(self, rng):
        comp = TopkCompressor(ratio=0.1, use_error_feedback=True)
        grad = rng.normal(size=100)
        accumulator = grad.copy()
        payload = comp.compress(accumulator)
        dense = np.zeros(100)
        dense[payload.indices] = payload.values
        # What was not sent stays behind in the accumulator, bit for bit.
        assert (dense + accumulator).tobytes() == grad.tobytes()
        assert not accumulator[payload.indices].any()

    def test_ef_eventually_transmits_everything(self, rng):
        """A constant gradient: what is sent plus the residual left in the
        accumulator reconstructs the cumulative input, and every coordinate
        is sent at some point."""
        comp = TopkCompressor(ratio=0.25, use_error_feedback=True)
        grad = rng.uniform(0.5, 1.0, size=32) * rng.choice([-1.0, 1.0], size=32)
        accumulator = np.full(32, -0.0)
        total_sent = np.zeros(32)
        ever_sent = np.zeros(32, dtype=bool)
        for _ in range(32):
            accumulator += grad
            payload = comp.compress(accumulator)
            total_sent[payload.indices] += payload.values
            ever_sent[payload.indices] = True
        np.testing.assert_allclose(total_sent + accumulator, 32 * grad, atol=1e-9)
        assert ever_sent.all()

    def test_invalid_params(self):
        with pytest.raises(ValueError, match="ratio"):
            TopkCompressor(ratio=0.0)
        with pytest.raises(ValueError, match="selection"):
            TopkCompressor(selection="magic")

    def test_sampled_selection_path(self, rng):
        comp = TopkCompressor(ratio=0.01, selection="sampled",
                              rng=np.random.default_rng(0))
        payload = comp.compress(rng.normal(size=50_000))
        assert 250 <= payload.k <= 700  # ~500 +/- tolerance


class TestSparseAggregate:
    def test_sums_across_workers(self):
        from repro.compression.topk import SparsePayload

        p1 = SparsePayload(np.array([0, 2]), np.array([1.0, 2.0]), 4)
        p2 = SparsePayload(np.array([2, 3]), np.array([3.0, 4.0]), 4)
        out = sparse_aggregate([p1, p2], (4,), average=False)
        np.testing.assert_allclose(out, [1.0, 0.0, 5.0, 4.0])
        mean = sparse_aggregate([p1, p2], (4,), average=True)
        np.testing.assert_allclose(mean, [0.5, 0.0, 2.5, 2.0])

    def test_duplicate_indices_within_payload_accumulate(self):
        from repro.compression.topk import SparsePayload

        p = SparsePayload(np.array([1, 1]), np.array([1.0, 1.0]), 3)
        out = sparse_aggregate([p], (3,), average=False)
        np.testing.assert_allclose(out, [0.0, 2.0, 0.0])

    def test_size_mismatch_rejected(self):
        from repro.compression.topk import SparsePayload

        p1 = SparsePayload(np.array([0]), np.array([1.0]), 4)
        p2 = SparsePayload(np.array([0]), np.array([1.0]), 5)
        with pytest.raises(ValueError, match="disagree"):
            sparse_aggregate([p1, p2], (4,))
