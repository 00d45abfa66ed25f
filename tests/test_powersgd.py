"""Power-SGD compressor state: power iteration, reuse, error feedback."""

import numpy as np
import pytest

from repro.compression.powersgd import PowerSGDState, init_low_rank


def _run_steps(state: PowerSGDState, matrix: np.ndarray, steps: int) -> np.ndarray:
    """Single-worker Power-SGD steps on a fixed matrix."""
    m_hat = None
    for _ in range(steps):
        p = state.compute_p("w", matrix)
        q = state.compute_q("w", p)
        m_hat = state.reconstruct("w", q)
    return m_hat


class TestPowerIteration:
    def test_converges_to_best_rank_r(self, rng):
        """Repeated power iteration (no EF) reaches the SVD truncation."""
        matrix = rng.normal(size=(20, 30))
        u, s, vt = np.linalg.svd(matrix)
        best = (u[:, :3] * s[:3]) @ vt[:3]
        state = PowerSGDState(rank=3, seed=1, use_error_feedback=False)
        m_hat = _run_steps(state, matrix, 25)
        np.testing.assert_allclose(
            np.linalg.norm(matrix - m_hat),
            np.linalg.norm(matrix - best),
            rtol=1e-3,
        )

    def test_exact_for_low_rank_matrix(self, rng):
        """A rank-2 matrix is recovered exactly by rank-2 compression."""
        a = rng.normal(size=(15, 2))
        b = rng.normal(size=(12, 2))
        matrix = a @ b.T
        state = PowerSGDState(rank=2, seed=0, use_error_feedback=False)
        m_hat = _run_steps(state, matrix, 15)
        np.testing.assert_allclose(m_hat, matrix, atol=1e-6)

    def test_reuse_improves_over_fresh_queries(self, rng):
        """Query reuse converges; fresh random queries keep the error high."""
        matrix = rng.normal(size=(24, 24))
        reuse = PowerSGDState(rank=2, seed=5, use_error_feedback=False, reuse_query=True)
        fresh = PowerSGDState(rank=2, seed=5, use_error_feedback=False, reuse_query=False)
        err_reuse = np.linalg.norm(matrix - _run_steps(reuse, matrix, 10))
        # Fresh queries: average error over several steps (it fluctuates).
        errs = []
        for _ in range(10):
            p = fresh.compute_p("w", matrix)
            q = fresh.compute_q("w", p)
            errs.append(np.linalg.norm(matrix - fresh.reconstruct("w", q)))
        assert err_reuse < 0.95 * np.mean(errs)

    def test_rank_capped_by_dimensions(self):
        state = PowerSGDState(rank=64)
        assert state.effective_rank((8, 100)) == 8
        assert state.effective_rank((100, 3)) == 3


class TestErrorFeedback:
    def test_cumulative_transmission_tracks_gradients(self, rng):
        state = PowerSGDState(rank=2, seed=3, use_error_feedback=True)
        base = rng.normal(size=(12, 16))
        accumulator = np.full(base.shape, -0.0)  # the rank's M + E
        total_in = np.zeros_like(base)
        total_out = np.zeros_like(base)
        for _ in range(150):
            grad = base + 0.1 * rng.normal(size=base.shape)
            accumulator += grad
            p = state.compute_p("w", accumulator)
            q = state.compute_q("w", p)
            m_hat = state.reconstruct("w", q)
            total_in += grad
            total_out += m_hat
        gap = np.linalg.norm(total_out - total_in) / np.linalg.norm(total_in)
        assert gap < 0.15

    def test_no_ef_loses_mass(self, rng):
        """Without EF the orthogonal complement is never transmitted."""
        state = PowerSGDState(rank=1, seed=3, use_error_feedback=False)
        base = rng.normal(size=(12, 16))
        total_in = np.zeros_like(base)
        total_out = np.zeros_like(base)
        for _ in range(100):
            p = state.compute_p("w", base)
            q = state.compute_q("w", p)
            total_out += state.reconstruct("w", q)
            total_in += base
        gap = np.linalg.norm(total_out - total_in) / np.linalg.norm(total_in)
        assert gap > 0.3


class TestProtocol:
    def test_stage_order_enforced(self, rng):
        state = PowerSGDState(rank=2)
        with pytest.raises(RuntimeError, match="compute_p"):
            state.compute_q("w", rng.normal(size=(4, 2)))
        with pytest.raises(RuntimeError, match="compute_q"):
            state.reconstruct("w", rng.normal(size=(4, 2)))

    def test_shared_seed_init_identical_across_workers(self):
        p1, q1 = init_low_rank((10, 8), 2, seed=7)
        p2, q2 = init_low_rank((10, 8), 2, seed=7)
        np.testing.assert_array_equal(q1, q2)
        np.testing.assert_array_equal(p1, p2)

    def test_init_rank_capped(self):
        p, q = init_low_rank((4, 100), 32, seed=0)
        assert p.shape == (4, 4)
        assert q.shape == (100, 4)

    def test_matrix_shape_validation(self, rng):
        state = PowerSGDState(rank=2)
        with pytest.raises(ValueError, match="matrix"):
            state.compute_p("w", rng.normal(size=5))

    def test_invalid_rank(self):
        with pytest.raises(ValueError, match="rank"):
            PowerSGDState(rank=0)

    def test_reset(self, rng):
        state = PowerSGDState(rank=2)
        p = state.compute_p("w", rng.normal(size=(6, 6)))
        state.reset()
        assert state._pending == {}
        assert state._query == {}
