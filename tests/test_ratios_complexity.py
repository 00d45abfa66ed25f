"""Analytical accounting behind Tables I and II."""

import pytest

from repro.compression.complexity import communicate_elements
from repro.compression.ratios import (
    acpsgd_compressed_elements,
    compression_ratio,
    powersgd_compressed_elements,
    topk_compressed_elements,
    total_elements,
)


class TestRatios:
    SHAPES = [(64, 32), (64,), (16, 8, 3, 3)]  # 2048 + 64 + 1152 = 3264

    def test_total_elements(self):
        assert total_elements(self.SHAPES) == 3264

    def test_powersgd_elements(self):
        # (64+32)*4 + (16+72)*4 compressed + 64 uncompressed
        expected = (64 + 32) * 4 + (16 + 72) * 4 + 64
        assert powersgd_compressed_elements(self.SHAPES, rank=4) == expected

    def test_acpsgd_is_half_plus_vectors(self):
        power = powersgd_compressed_elements(self.SHAPES, rank=4)
        acp = acpsgd_compressed_elements(self.SHAPES, rank=4)
        assert acp == pytest.approx((power - 64) / 2 + 64)

    def test_rank_capped_by_matrix_dims(self):
        # A 2 x 100 matrix caps rank at 2.
        assert powersgd_compressed_elements([(2, 100)], rank=32) == (2 + 100) * 2

    def test_topk_elements(self):
        assert topk_compressed_elements(self.SHAPES, 0.01) == 33

    def test_compression_ratio_dispatch(self):
        assert compression_ratio(self.SHAPES, "signsgd") == 32.0
        assert compression_ratio(self.SHAPES, "topk", ratio=0.001) == pytest.approx(
            3264 / max(1, round(3264 * 0.001))
        )
        assert compression_ratio(self.SHAPES, "powersgd", rank=4) > 1
        with pytest.raises(ValueError, match="unknown method"):
            compression_ratio(self.SHAPES, "gzip")

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            powersgd_compressed_elements(self.SHAPES, rank=0)
        with pytest.raises(ValueError):
            topk_compressed_elements(self.SHAPES, 0.0)


class TestComplexity:
    def test_ssgd_communicate(self):
        assert communicate_elements("ssgd", 4, 1000) == pytest.approx(1500)
        assert communicate_elements("ssgd", 1, 1000) == 0.0

    def test_signsgd_linear_in_p(self):
        t4 = communicate_elements("signsgd", 4, 3200)
        t8 = communicate_elements("signsgd", 8, 3200)
        assert t8 / t4 == pytest.approx(7 / 3)

    def test_topk(self):
        assert communicate_elements("topk", 4, 1000, k=10) == 60

    def test_powersgd_vs_acpsgd_halving(self):
        power = communicate_elements("powersgd", 8, 1000, n_c=100)
        acp = communicate_elements("acpsgd", 8, 1000, n_c=100)
        assert acp == pytest.approx(power / 2)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            communicate_elements("magic", 4, 10)
