"""Power-SGD on the low-rank state (two halves per step): power
iteration, reuse, error feedback."""

import numpy as np
import pytest

from repro.compression.lowrank import LowRankState, factor_rank, init_low_rank


def power_sgd(rank: int, **kwargs) -> LowRankState:
    return LowRankState(rank, halves_per_step=2, **kwargs)


def one_step(state: LowRankState, matrix: np.ndarray, step: int) -> np.ndarray:
    """One single-worker step — every half, each factor its own average;
    returns ``P Q^T``."""
    for half in state.halves(step):
        p, q = state.adopt("w", state.compress("w", matrix, half), half)
    return p @ q.T


def _run_steps(state: LowRankState, matrix: np.ndarray, steps: int) -> np.ndarray:
    """Single-worker Power-SGD steps on a fixed matrix."""
    m_hat = None
    for step in range(1, steps + 1):
        m_hat = one_step(state, matrix, step)
    return m_hat


class TestPowerIteration:
    def test_converges_to_best_rank_r(self, rng):
        """Repeated power iteration (no EF) reaches the SVD truncation."""
        matrix = rng.normal(size=(20, 30))
        u, s, vt = np.linalg.svd(matrix)
        best = (u[:, :3] * s[:3]) @ vt[:3]
        state = power_sgd(rank=3, seed=1, use_error_feedback=False)
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
        state = power_sgd(rank=2, seed=0, use_error_feedback=False)
        m_hat = _run_steps(state, matrix, 15)
        np.testing.assert_allclose(m_hat, matrix, atol=1e-6)

    def test_reuse_improves_over_fresh_queries(self, rng):
        """Query reuse converges; fresh random queries keep the error high."""
        matrix = rng.normal(size=(24, 24))
        reuse = power_sgd(rank=2, seed=5, use_error_feedback=False, reuse_query=True)
        fresh = power_sgd(rank=2, seed=5, use_error_feedback=False, reuse_query=False)
        err_reuse = np.linalg.norm(matrix - _run_steps(reuse, matrix, 10))
        # Fresh queries: average error over several steps (it fluctuates).
        errs = [
            np.linalg.norm(matrix - one_step(fresh, matrix, step))
            for step in range(1, 11)
        ]
        assert err_reuse < 0.95 * np.mean(errs)

    def test_rank_capped_by_dimensions(self, rng):
        assert factor_rank(64, 8, 100) == 8
        assert factor_rank(64, 100, 3) == 3
        state = power_sgd(rank=64)
        p = state.compress("w", rng.normal(size=(8, 100)), 1)
        _, q = state.adopt("w", p, 1)
        assert p.shape == (8, 8) and q.shape == (100, 8)


class TestErrorFeedback:
    def test_cumulative_transmission_tracks_gradients(self, rng):
        state = power_sgd(rank=2, seed=3, use_error_feedback=True)
        base = rng.normal(size=(12, 16))
        accumulator = np.full(base.shape, -0.0)  # the rank's M + E
        total_in = np.zeros_like(base)
        total_out = np.zeros_like(base)
        for step in range(1, 151):
            grad = base + 0.1 * rng.normal(size=base.shape)
            accumulator += grad
            m_hat = one_step(state, accumulator, step)
            total_in += grad
            total_out += m_hat
        gap = np.linalg.norm(total_out - total_in) / np.linalg.norm(total_in)
        assert gap < 0.15

    def test_no_ef_loses_mass(self, rng):
        """Without EF the orthogonal complement is never transmitted."""
        state = power_sgd(rank=1, seed=3, use_error_feedback=False)
        base = rng.normal(size=(12, 16))
        total_in = np.zeros_like(base)
        total_out = np.zeros_like(base)
        for step in range(1, 101):
            total_out += one_step(state, base, step)
            total_in += base
        gap = np.linalg.norm(total_out - total_in) / np.linalg.norm(total_in)
        assert gap > 0.3


class TestProtocol:
    def test_stage_order_enforced(self, rng):
        """compress -> adopt, once per half: P, then Q."""
        state = power_sgd(rank=2)
        with pytest.raises(RuntimeError, match="before compress"):
            state.adopt("w", rng.normal(size=(4, 2)), 1)
        matrix = rng.normal(size=(4, 6))
        p = state.compress("w", matrix, 1)
        state.adopt("w", p, 1)
        with pytest.raises(RuntimeError, match="before compress"):
            state.adopt("w", p, 1)
        assert state.compress("w", matrix, 2).shape == (6, 2)

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
        state = power_sgd(rank=2)
        with pytest.raises(ValueError, match="matrix"):
            state.compress("w", rng.normal(size=5), 1)

    def test_invalid_rank(self):
        with pytest.raises(ValueError, match="rank"):
            power_sgd(rank=0)

    def test_reset(self, rng):
        state = power_sgd(rank=2)
        state.compress("w", rng.normal(size=(6, 6)), 1)
        state.reset()
        assert state._p == {} and state._q == {} and state._carried == {}
