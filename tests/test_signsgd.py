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
from repro.perf.arena import GradientArena


class TestCompression:
    def test_payload_is_32x_smaller(self, rng):
        grad = rng.normal(size=6400)
        payload = SignCompressor(use_error_feedback=False).compress(grad)
        # 6400 bits = 800 bytes vs 25600 fp32 bytes.
        assert payload.packed_bits.nbytes == 800

    def test_sign_roundtrip(self, rng):
        grad = rng.normal(size=100)
        payload = SignCompressor(use_error_feedback=False).compress(grad)
        signs = SignCompressor.unpack_signs(payload)
        expected = np.where(grad >= 0, 1.0, -1.0)
        np.testing.assert_array_equal(signs, expected)

    def test_scale_is_l1_mean(self, rng):
        grad = rng.normal(size=50)
        payload = SignCompressor(use_error_feedback=False).compress(grad)
        assert payload.scale == pytest.approx(np.abs(grad).mean())

    def test_non_multiple_of_8_lengths(self, rng):
        grad = rng.normal(size=13)
        payload = SignCompressor(use_error_feedback=False).compress(grad)
        assert SignCompressor.unpack_signs(payload).size == 13

    @settings(max_examples=30, deadline=None)
    @given(size=st.integers(1, 200), seed=st.integers(0, 5000))
    def test_property_roundtrip(self, size, seed):
        rng = np.random.default_rng(seed)
        grad = rng.normal(size=size)
        payload = SignCompressor(use_error_feedback=False).compress(grad)
        signs = SignCompressor.unpack_signs(payload)
        assert signs.size == size
        assert set(np.unique(signs)).issubset({-1.0, 1.0})


class TestErrorFeedback:
    def test_residual_carried_to_next_step(self, rng):
        comp = SignCompressor(use_error_feedback=True)
        grad = np.array([10.0, -0.1, 0.1, -10.0])
        accumulator = grad.copy()
        comp.compress(accumulator)
        # Residual = grad - scale*sign(grad), left in the accumulator; a
        # zero gradient next reproduces the residual's signs.
        scale = np.abs(grad).mean()
        residual = grad - scale * np.sign(grad)
        np.testing.assert_array_equal(accumulator, residual)
        accumulator += np.zeros(4)
        payload2 = comp.compress(accumulator)
        expected_signs = np.where(residual >= 0, 1.0, -1.0)
        np.testing.assert_array_equal(
            SignCompressor.unpack_signs(payload2), expected_signs
        )

    def test_ef_cumulative_transmission_tracks_gradient(self, rng):
        """Sum of transmitted representatives ~ sum of inputs over time."""
        comp = SignCompressor(use_error_feedback=True)
        accumulator = np.full(64, -0.0)
        total_in = np.zeros(64)
        total_out = np.zeros(64)
        base = rng.normal(size=64)
        for _ in range(400):
            grad = base + 0.1 * rng.normal(size=64)
            accumulator += grad
            payload = comp.compress(accumulator)
            rep = payload.scale * SignCompressor.unpack_signs(payload)
            total_in += grad
            total_out += rep
        gap = np.linalg.norm(total_out - total_in) / np.linalg.norm(total_in)
        assert gap < 0.5

    def test_reset_clears_state(self, rng):
        """``reset`` empties the residuals where they live (``-0.0``): the
        next step is the one a fresh aggregator would take."""
        grads = [{"g": rng.normal(size=8)} for _ in range(2)]
        aggregator = SignSGDAggregator(ProcessGroup(2))
        aggregator.aggregate(grads)
        aggregator.reset()
        for slot in range(2):
            assert aggregator._arena.slab(slot).tobytes() == np.full(8, -0.0).tobytes()
        again = [{"g": rng.normal(size=8)} for _ in range(2)]
        want = SignSGDAggregator(ProcessGroup(2)).aggregate(again)["g"]
        assert aggregator.aggregate(again)["g"].tobytes() == want.tobytes()


class TestMajorityVote:
    def test_unanimous(self):
        payloads = [
            SignCompressor(use_error_feedback=False).compress(np.array([1.0, -2.0]))
            for _ in range(3)
        ]
        out = majority_vote_aggregate(payloads, (2,))
        scale = payloads[0].scale
        np.testing.assert_allclose(out, [scale, -scale])

    def test_majority_wins(self):
        grads = [np.array([1.0]), np.array([1.0]), np.array([-1.0])]
        payloads = [
            SignCompressor(use_error_feedback=False).compress(g) for g in grads
        ]
        out = majority_vote_aggregate(payloads, (1,))
        assert out[0] > 0

    def test_tie_resolves_positive(self):
        grads = [np.array([1.0]), np.array([-1.0])]
        payloads = [
            SignCompressor(use_error_feedback=False).compress(g) for g in grads
        ]
        out = majority_vote_aggregate(payloads, (1,))
        assert out[0] > 0

    def test_size_mismatch_rejected(self, rng):
        p1 = SignCompressor(use_error_feedback=False).compress(rng.normal(size=4))
        p2 = SignCompressor(use_error_feedback=False).compress(rng.normal(size=5))
        with pytest.raises(ValueError, match="disagree"):
            majority_vote_aggregate([p1, p2], (4,))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            majority_vote_aggregate([], (1,))


# Longer than one vote block (65 536), tensor and bucket edges off the byte
# grid: every block slices the packed bits at its own offset.
VOTE_SHAPES = [("a", (70001,)), ("b", (13,)), ("c", (257, 300))]


class TestAggregatorVotesOnBitCounts:
    """The in-slab integer vote against float arithmetic on +-1."""

    @staticmethod
    def _arena(world, bucket_bytes, aggregator):
        """The slabs the aggregator keeps its residuals in, as a trainer's."""
        arena = GradientArena(
            [(name, np.zeros(shape)) for name, shape in VOTE_SHAPES],
            world, bucket_bytes=bucket_bytes,
        )
        aggregator.attach(arena)
        return arena

    @staticmethod
    def _filled(arena, rng):
        """One step's gradients, added into the slabs as backward would."""
        layout = arena.layout
        grads = [
            rng.standard_normal(layout.total_elements)
            for _ in range(arena.world_size)
        ]
        per_worker = [
            arena.load(slot, layout.carve(grad)) for slot, grad in enumerate(grads)
        ]
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
        aggregator = SignSGDAggregator(ProcessGroup(world))
        arena = self._arena(world, bucket_bytes, aggregator)
        total = arena.layout.total_elements
        oracle = SignCompressor()
        accumulators = [np.full(total, -0.0) for _ in range(world)]
        rng = np.random.default_rng(world)
        residuals = [np.full(total, -0.0) for _ in range(world)]
        ties = 0
        for _ in range(3):
            grads, per_worker = self._filled(arena, rng)
            out = aggregator.aggregate(per_worker)
            got = np.concatenate([out[name].reshape(-1) for name, _ in VOTE_SHAPES])
            corrected = [r + g for r, g in zip(residuals, grads)]
            signs = [np.where(w >= 0, 1.0, -1.0) for w in corrected]
            scales = [float(np.abs(w).mean()) for w in corrected]
            vote = np.sum(signs, axis=0)
            ties += int(np.count_nonzero(vote == 0))
            want = float(np.mean(scales)) * np.where(vote >= 0, 1.0, -1.0)
            assert got.tobytes() == want.tobytes()
            assert not any(np.shares_memory(out["a"], w.slab) for w in per_worker)
            payloads = []
            for accumulator, grad in zip(accumulators, grads):
                accumulator += grad
                payloads.append(oracle.compress(accumulator))
            voted = majority_vote_aggregate(payloads, got.shape)
            assert got.tobytes() == voted.tobytes()
            for rank in range(world):
                kept = arena.slab(rank)
                want_kept = corrected[rank] - scales[rank] * signs[rank]
                assert kept.tobytes() == want_kept.tobytes()
                assert kept.tobytes() == accumulators[rank].tobytes()
                residuals[rank] = kept.copy()
        assert (ties > 0) == (world % 2 == 0)

    def test_without_error_feedback_the_slabs_are_only_read(self):
        aggregator = SignSGDAggregator(ProcessGroup(3), use_error_feedback=False)
        arena = self._arena(3, 70001 * 8, aggregator)
        grads, per_worker = self._filled(arena, np.random.default_rng(0))
        out = aggregator.aggregate(per_worker)
        got = np.concatenate([out[name].reshape(-1) for name, _ in VOTE_SHAPES])
        payloads = [SignCompressor(False).compress(g) for g in grads]
        want = majority_vote_aggregate(payloads, got.shape)
        assert got.tobytes() == want.tobytes()
        for grad, worker in zip(grads, per_worker):
            assert worker.slab.tobytes() == grad.tobytes()
