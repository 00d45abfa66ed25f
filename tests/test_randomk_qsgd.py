"""Random-k (shared-seed additive sparsification) and QSGD quantization."""

import numpy as np
import pytest

from repro.compression.qsgd import QSGDCompressor
from repro.compression.randomk import RandomKCompressor


class TestRandomK:
    def test_shared_seed_gives_identical_indices(self, rng):
        """The additivity property: all workers select the same coordinates."""
        comp_a = RandomKCompressor(ratio=0.1, seed=42)
        comp_b = RandomKCompressor(ratio=0.1, seed=42)
        idx_a = comp_a.indices_for_step("w", 1000, step=3)
        idx_b = comp_b.indices_for_step("w", 1000, step=3)
        np.testing.assert_array_equal(idx_a, idx_b)

    def test_different_steps_give_different_indices(self):
        comp = RandomKCompressor(ratio=0.1, seed=42)
        idx1 = comp.indices_for_step("w", 1000, step=1)
        idx2 = comp.indices_for_step("w", 1000, step=2)
        assert set(idx1) != set(idx2)

    def test_different_tensors_decorrelated(self):
        comp = RandomKCompressor(ratio=0.1, seed=42)
        idx1 = comp.indices_for_step("a", 1000, step=1)
        idx2 = comp.indices_for_step("b", 1000, step=1)
        assert set(idx1) != set(idx2)

    def test_compress_decompress_roundtrip(self, rng):
        comp = RandomKCompressor(ratio=0.5, seed=0, use_error_feedback=False)
        grad = rng.normal(size=(4, 5))
        payload = comp.compress("w", grad, step=1)
        dense = RandomKCompressor.decompress(payload, (4, 5))
        flat = grad.reshape(-1)
        np.testing.assert_allclose(dense.reshape(-1)[payload.indices],
                                   flat[payload.indices])

    def test_error_feedback_conservation(self, rng):
        comp = RandomKCompressor(ratio=0.25, seed=0, use_error_feedback=True)
        grad = rng.normal(size=40)
        accumulator = np.full(40, -0.0)  # the rank's residual + gradient
        total_sent = np.zeros(40)
        for step in range(1, 9):
            accumulator += grad
            payload = comp.compress("w", accumulator, step)
            assert not accumulator[payload.indices].any()
            total_sent[payload.indices] += payload.values
        np.testing.assert_allclose(total_sent + accumulator, 8 * grad, atol=1e-9)

    def test_invalid_ratio(self):
        with pytest.raises(ValueError, match="ratio"):
            RandomKCompressor(ratio=1.5)


class TestQSGD:
    def test_unbiasedness(self, rng):
        """E[q(x)] = x: the defining QSGD property."""
        comp = QSGDCompressor(num_levels=4, rng=rng)
        x = rng.normal(size=64)
        total = np.zeros(64)
        trials = 3000
        for _ in range(trials):
            payload = comp.compress(x)
            total += QSGDCompressor.decompress(payload, (64,))
        mean = total / trials
        np.testing.assert_allclose(mean, x, atol=0.05)

    def test_zero_tensor(self):
        comp = QSGDCompressor(num_levels=8)
        payload = comp.compress(np.zeros(16))
        np.testing.assert_array_equal(
            QSGDCompressor.decompress(payload, (16,)), np.zeros(16)
        )

    def test_levels_bounded(self, rng):
        comp = QSGDCompressor(num_levels=4, rng=rng)
        payload = comp.compress(rng.normal(size=100))
        assert payload.levels.max() <= 4

    def test_high_levels_low_error(self, rng):
        comp = QSGDCompressor(num_levels=2**16, rng=rng)
        x = rng.normal(size=128)
        payload = comp.compress(x)
        out = QSGDCompressor.decompress(payload, (128,))
        assert np.linalg.norm(out - x) / np.linalg.norm(x) < 1e-3

    def test_invalid_levels(self):
        with pytest.raises(ValueError, match="num_levels"):
            QSGDCompressor(num_levels=0)
