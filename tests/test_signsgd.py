"""Sign-SGD compressor: packing, majority vote, error feedback."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.comm.process_group import ProcessGroup
from repro.compression.signsgd import (
    SignCompressor,
    SignPayload,
    majority_vote_aggregate,
)
from repro.optim.aggregators import SignSGDAggregator
from repro.perf.arena import ArenaGrads, ArenaLayout


class TestCompression:
    def test_payload_is_32x_smaller(self, rng):
        grad = rng.normal(size=6400)
        payload = SignCompressor(use_error_feedback=False).compress("g", grad)
        # 6400 bits = 800 bytes (+4 for the scale) vs 25600 fp32 bytes.
        assert payload.packed_bits.nbytes == 800
        assert payload.nbytes == 804

    def test_sign_roundtrip(self, rng):
        grad = rng.normal(size=100)
        payload = SignCompressor(use_error_feedback=False).compress("g", grad)
        signs = SignCompressor.unpack_signs(payload)
        expected = np.where(grad >= 0, 1.0, -1.0)
        np.testing.assert_array_equal(signs, expected)

    def test_scale_is_l1_mean(self, rng):
        grad = rng.normal(size=50)
        payload = SignCompressor(use_error_feedback=False).compress("g", grad)
        assert payload.scale == pytest.approx(np.abs(grad).mean())

    def test_non_multiple_of_8_lengths(self, rng):
        grad = rng.normal(size=13)
        payload = SignCompressor(use_error_feedback=False).compress("g", grad)
        assert SignCompressor.unpack_signs(payload).size == 13

    @settings(max_examples=30, deadline=None)
    @given(size=st.integers(1, 200), seed=st.integers(0, 5000))
    def test_property_roundtrip(self, size, seed):
        rng = np.random.default_rng(seed)
        grad = rng.normal(size=size)
        payload = SignCompressor(use_error_feedback=False).compress("g", grad)
        signs = SignCompressor.unpack_signs(payload)
        assert signs.size == size
        assert set(np.unique(signs)).issubset({-1.0, 1.0})


class TestErrorFeedback:
    def test_residual_carried_to_next_step(self, rng):
        comp = SignCompressor(use_error_feedback=True)
        grad = np.array([10.0, -0.1, 0.1, -10.0])
        comp.compress("g", grad)
        # Residual = grad - scale*sign(grad); compressing zeros next should
        # reproduce the residual's signs.
        payload2 = comp.compress("g", np.zeros(4))
        scale = np.abs(grad).mean()
        residual = grad - scale * np.sign(grad)
        expected_signs = np.where(residual >= 0, 1.0, -1.0)
        np.testing.assert_array_equal(
            SignCompressor.unpack_signs(payload2), expected_signs
        )

    def test_ef_cumulative_transmission_tracks_gradient(self, rng):
        """Sum of transmitted representatives ~ sum of inputs over time."""
        comp = SignCompressor(use_error_feedback=True)
        total_in = np.zeros(64)
        total_out = np.zeros(64)
        base = rng.normal(size=64)
        for _ in range(400):
            grad = base + 0.1 * rng.normal(size=64)
            payload = comp.compress("g", grad)
            rep = payload.scale * SignCompressor.unpack_signs(payload)
            total_in += grad
            total_out += rep
        gap = np.linalg.norm(total_out - total_in) / np.linalg.norm(total_in)
        assert gap < 0.5

    def test_reset_clears_state(self, rng):
        comp = SignCompressor(use_error_feedback=True)
        comp.compress("g", rng.normal(size=8))
        comp.reset()
        assert comp._error == {}


class TestMajorityVote:
    def test_unanimous(self):
        payloads = [
            SignCompressor(use_error_feedback=False).compress("g", np.array([1.0, -2.0]))
            for _ in range(3)
        ]
        out = majority_vote_aggregate(payloads, (2,))
        scale = payloads[0].scale
        np.testing.assert_allclose(out, [scale, -scale])

    def test_majority_wins(self):
        grads = [np.array([1.0]), np.array([1.0]), np.array([-1.0])]
        payloads = [
            SignCompressor(use_error_feedback=False).compress("g", g) for g in grads
        ]
        out = majority_vote_aggregate(payloads, (1,))
        assert out[0] > 0

    def test_tie_resolves_positive(self):
        grads = [np.array([1.0]), np.array([-1.0])]
        payloads = [
            SignCompressor(use_error_feedback=False).compress("g", g) for g in grads
        ]
        out = majority_vote_aggregate(payloads, (1,))
        assert out[0] > 0

    def test_size_mismatch_rejected(self, rng):
        p1 = SignCompressor(use_error_feedback=False).compress("g", rng.normal(size=4))
        p2 = SignCompressor(use_error_feedback=False).compress("g", rng.normal(size=5))
        with pytest.raises(ValueError, match="disagree"):
            majority_vote_aggregate([p1, p2], (4,))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            majority_vote_aggregate([], (1,))


# Longer than one vote block (65 536), tensor and bucket edges off the byte
# grid: every block slices the packed bits at its own offset.
VOTE_SHAPES = [("a", (70001,)), ("b", (13,)), ("c", (257, 300))]


class TestAggregatorVotesOnBitCounts:
    """The slab-consuming integer vote against float arithmetic on +-1."""

    @staticmethod
    def _filled(layout, world, rng):
        grads = [rng.standard_normal(layout.total_elements) for _ in range(world)]
        per_worker = []
        for grad in grads:
            slab = grad.copy()
            per_worker.append(ArenaGrads(layout.carve(slab), slab, layout))
        return grads, per_worker

    @pytest.mark.parametrize("world", [2, 3, 4])  # even worlds hit the tie rule
    @pytest.mark.parametrize("bucket_bytes", [None, 70001 * 8])
    def test_error_feedback_conservation_bitwise(self, world, bucket_bytes):
        """``residual_t == (residual_{t-1} + grad_t) - scale_t * sign_t`` per
        rank, bit for bit — nothing but what was sent leaves the residual —
        and the output is ``mean(scale) * sign(sum of signs)``, ties ``+1``.

        (The textbook form ``residual_t + scale_t * sign_t == residual_{t-1}
        + grad_t`` holds only up to the rounding of that last sum; this is
        the identity the arithmetic keeps exactly.)
        """
        layout = ArenaLayout(VOTE_SHAPES, bucket_bytes=bucket_bytes)
        aggregator = SignSGDAggregator(ProcessGroup(world))
        oracle = [SignCompressor() for _ in range(world)]
        rng = np.random.default_rng(world)
        residuals = [np.full(layout.total_elements, -0.0) for _ in range(world)]
        ties = 0
        for _ in range(3):
            grads, per_worker = self._filled(layout, world, rng)
            out = aggregator.aggregate(per_worker)
            got = np.concatenate([out[name].reshape(-1) for name, _ in VOTE_SHAPES])
            corrected = [r + g for r, g in zip(residuals, grads)]
            signs = [np.where(w >= 0, 1.0, -1.0) for w in corrected]
            scales = [float(np.abs(w).mean()) for w in corrected]
            vote = np.sum(signs, axis=0)
            ties += int(np.count_nonzero(vote == 0))
            want = float(np.mean(scales)) * np.where(vote >= 0, 1.0, -1.0)
            assert got.tobytes() == want.tobytes()
            assert np.shares_memory(out["a"], per_worker[0].slab)
            payloads = [c.compress("g", g) for c, g in zip(oracle, grads)]
            voted = majority_vote_aggregate(payloads, got.shape)
            assert got.tobytes() == voted.tobytes()
            for rank in range(world):
                kept = aggregator.state_for(rank)._error["fused"]
                want_kept = corrected[rank] - scales[rank] * signs[rank]
                assert kept.tobytes() == want_kept.tobytes()
                assert kept.tobytes() == oracle[rank]._error["g"].tobytes()
                residuals[rank] = kept.copy()
        assert (ties > 0) == (world % 2 == 0)

    def test_without_error_feedback_only_slot_zero_is_decoded_into(self):
        layout = ArenaLayout(VOTE_SHAPES, bucket_bytes=70001 * 8)
        aggregator = SignSGDAggregator(ProcessGroup(3), use_error_feedback=False)
        grads, per_worker = self._filled(layout, 3, np.random.default_rng(0))
        out = aggregator.aggregate(per_worker)
        got = np.concatenate([out[name].reshape(-1) for name, _ in VOTE_SHAPES])
        payloads = [SignCompressor(False).compress("g", g) for g in grads]
        want = majority_vote_aggregate(payloads, got.shape)
        assert got.tobytes() == want.tobytes()
        # EF off the slab *is* the vector: |v| is taken in place.
        for grad, worker in zip(grads[1:], per_worker[1:]):
            assert np.array_equal(worker.slab, np.abs(grad))
