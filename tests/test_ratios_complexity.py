"""Analytical accounting behind Tables I and II, read off the declared wire."""

import pytest

from repro.compression.wire import (
    communicate_elements,
    compression_ratio,
    select_count,
    step_wire,
)


def _elements(method, shapes, **kwargs):
    """Elements one step sends (``elem_bytes=1``: a float is one byte)."""
    return sum(c.nbytes for c in step_wire(method, shapes, elem_bytes=1, **kwargs))


class TestRatios:
    SHAPES = [(64, 32), (64,), (16, 8, 3, 3)]  # 2048 + 64 + 1152 = 3264

    def test_total_elements(self):
        assert _elements("ssgd", self.SHAPES) == 3264

    def test_powersgd_elements(self):
        # (64+32)*4 + (16+72)*4 compressed + 64 uncompressed
        expected = (64 + 32) * 4 + (16 + 72) * 4 + 64
        assert _elements("powersgd", self.SHAPES, rank=4) == expected

    def test_acpsgd_is_half_plus_vectors(self):
        power = _elements("powersgd", self.SHAPES, rank=4)
        acp = sum(
            _elements("acpsgd", self.SHAPES, rank=4, half=half) for half in (1, 2)
        ) / 2
        assert acp == pytest.approx((power - 64) / 2 + 64)

    def test_rank_capped_by_matrix_dims(self):
        # A 2 x 100 matrix caps rank at 2, where factoring would send
        # (2 + 100) * 2 = 204 elements: it travels plain, as its 200.
        assert _elements("powersgd", [(2, 100)], rank=32) == 200

    def test_topk_elements(self):
        assert select_count(0.01, 3264) == 33
        # Values and indices of every selected element.
        assert _elements("topk", self.SHAPES, ratio=0.01) == 2 * 33

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
            compression_ratio(self.SHAPES, "powersgd", rank=0)
        with pytest.raises(ValueError):
            compression_ratio(self.SHAPES, "topk", ratio=0.0)


class TestComplexity:
    def test_ssgd_communicate(self):
        assert communicate_elements("ssgd", 4, [(1000,)]) == pytest.approx(1500)
        assert communicate_elements("ssgd", 1, [(1000,)]) == 0.0

    def test_signsgd_linear_in_p(self):
        t4 = communicate_elements("signsgd", 4, [(3200,)])
        t8 = communicate_elements("signsgd", 8, [(3200,)])
        assert t4 == pytest.approx(3 * 3200 / 32)
        assert t8 / t4 == pytest.approx(7 / 3)

    def test_topk(self):
        assert communicate_elements("topk", 4, [(1000,)], ratio=0.01) == 60

    def test_powersgd_vs_acpsgd_halving(self):
        # ACP-SGD halves the factors, not the bias: both send it every step.
        shapes = [(64, 48), (48,)]
        power = communicate_elements("powersgd", 8, shapes, rank=4)
        acp = communicate_elements("acpsgd", 8, shapes, rank=4)
        bias = 2 * 7 / 8 * 48
        assert power == pytest.approx(2 * 7 / 8 * ((64 + 48) * 4 + 48))
        assert acp == pytest.approx((power - bias) / 2 + bias)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            communicate_elements("magic", 4, [(10,)])
