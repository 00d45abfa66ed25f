"""TernGrad quantizer."""

import numpy as np
import pytest

from repro.comm.process_group import ProcessGroup
from repro.compression.terngrad import (
    TernGradCompressor,
    _pack_ternary,
    _unpack_ternary,
)
from repro.optim.aggregators import make_aggregator


class TestTernaryPacking:
    def test_roundtrip(self, rng):
        values = rng.integers(-1, 2, size=37).astype(np.int8)
        packed = _pack_ternary(values)
        assert packed.nbytes == 10  # ceil(37/4)
        recovered = _unpack_ternary(packed, 37, np.float64)
        np.testing.assert_array_equal(recovered, values.astype(np.float64))

    def test_exact_multiple_of_four(self, rng):
        values = rng.integers(-1, 2, size=16).astype(np.int8)
        recovered = _unpack_ternary(_pack_ternary(values), 16, np.float64)
        np.testing.assert_array_equal(recovered, values)


class TestTernGrad:
    def test_values_are_ternary(self, rng):
        comp = TernGradCompressor(rng)
        grad = rng.normal(size=200)
        payload = comp.compress(grad)
        dense = TernGradCompressor.decompress(payload, (200,))
        levels = np.unique(np.round(np.abs(dense), 12))
        assert len(levels) <= 2  # {0, s}

    def test_unbiasedness(self, rng):
        comp = TernGradCompressor(rng)
        x = rng.normal(size=48)
        total = np.zeros(48)
        trials = 4000
        for _ in range(trials):
            payload = comp.compress(x)
            total += TernGradCompressor.decompress(payload, (48,))
        np.testing.assert_allclose(total / trials, x, atol=0.08)

    def test_payload_is_16x_smaller(self, rng):
        grad = rng.normal(size=6400)
        payload = TernGradCompressor(rng).compress(grad)
        assert payload.packed.nbytes == 1600  # 2 bits/element

    def test_zero_gradient(self):
        payload = TernGradCompressor().compress(np.zeros(10))
        np.testing.assert_array_equal(
            TernGradCompressor.decompress(payload, (10,)), np.zeros(10)
        )

    def test_clipping_reduces_scale(self, rng):
        grad = rng.normal(size=1000)
        grad[0] = 100.0  # outlier
        unclipped = TernGradCompressor(rng, clip_sigma=0.0).compress(grad)
        clipped = TernGradCompressor(rng, clip_sigma=2.5).compress(grad)
        assert clipped.scale < unclipped.scale

    def test_validation(self):
        with pytest.raises(ValueError, match="clip_sigma"):
            TernGradCompressor(clip_sigma=-1)

    def test_aggregator_registered(self, rng):
        agg = make_aggregator("terngrad", ProcessGroup(3))
        per_worker = [{"w": rng.normal(size=(6, 6))} for _ in range(3)]
        out = agg.aggregate(per_worker)
        assert out["w"].shape == (6, 6)
        assert np.isfinite(out["w"]).all()

    def test_aggregator_uses_allgather(self, rng):
        group = ProcessGroup(2)
        make_aggregator("terngrad", group).aggregate(
            [{"w": rng.normal(size=8)} for _ in range(2)]
        )
        assert any(s.algorithm == "all_gather" for s in group.history)
