"""Weight initialization schemes."""

import math

import numpy as np
import pytest

from repro.nn import init


class TestFanComputation:
    def test_linear_shapes(self):
        assert init._fan_in_out((10, 20)) == (20, 10)

    def test_conv_shapes(self):
        # (out, in, kh, kw): receptive field multiplies both fans.
        assert init._fan_in_out((8, 4, 3, 3)) == (4 * 9, 8 * 9)

    def test_vector_rejected(self):
        with pytest.raises(ValueError, match="2 dims"):
            init._fan_in_out((5,))


class TestDistributions:
    def _std(self, draw, shape, trials=20):
        rng = np.random.default_rng(0)
        samples = np.concatenate(
            [draw(shape, rng).reshape(-1) for _ in range(trials)]
        )
        return samples.std(), samples.mean()

    def test_kaiming_normal_std(self):
        shape = (64, 32)
        std, mean = self._std(init.kaiming_normal, shape)
        expected = math.sqrt(2.0 / 32)
        assert std == pytest.approx(expected, rel=0.05)
        assert abs(mean) < 0.02

    def test_kaiming_uniform_bound(self):
        rng = np.random.default_rng(1)
        values = init.kaiming_uniform((64, 32), rng)
        bound = math.sqrt(2.0) * math.sqrt(3.0 / 32)
        assert np.abs(values).max() <= bound
        assert np.abs(values).max() > 0.8 * bound

    def test_deterministic_under_seed(self):
        a = init.kaiming_normal((4, 4), np.random.default_rng(9))
        b = init.kaiming_normal((4, 4), np.random.default_rng(9))
        np.testing.assert_array_equal(a, b)

    def test_conv_fan_in_scales_std(self):
        """Bigger receptive fields shrink the init std (He rule)."""
        rng = np.random.default_rng(3)
        small = init.kaiming_normal((16, 4, 1, 1), rng).std()
        large = init.kaiming_normal((16, 4, 5, 5), rng).std()
        assert large < small / 3
