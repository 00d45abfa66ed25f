"""ACP-SGD on the low-rank state (one half per step): alternation,
convergence, EF, halved costs."""

import numpy as np
import pytest

from repro.compression.lowrank import LowRankState


def adopted_product(state: LowRankState, factor: np.ndarray, step: int) -> np.ndarray:
    """Adopt the step's aggregated factor; returns ``P_t Q_t^T``."""
    p, q = state.adopt("w", factor, step)
    return p @ q.T


def _run_steps(state: LowRankState, matrix: np.ndarray, steps: int) -> np.ndarray:
    m_hat = None
    for t in range(1, steps + 1):
        factor = state.compress("w", matrix, t)
        m_hat = adopted_product(state, factor, t)
    return m_hat


class TestAlternation:
    def test_parity_rule(self):
        assert LowRankState.compresses_p(1)
        assert not LowRankState.compresses_p(2)
        assert LowRankState.compresses_p(3)
        # ACP-SGD's step t is half t; Power-SGD's is halves 2t - 1 (P), 2t (Q).
        assert list(LowRankState(rank=2).halves(3)) == [3]
        assert list(LowRankState(rank=2, halves_per_step=2).halves(3)) == [5, 6]

    def test_odd_step_emits_p_shaped_factor(self, rng):
        state = LowRankState(rank=3, seed=0)
        matrix = rng.normal(size=(10, 20))
        factor = state.compress("w", matrix, 1)
        assert factor.shape == (10, 3)  # P: n x r
        adopted_product(state, factor, 1)
        factor2 = state.compress("w", matrix, 2)
        assert factor2.shape == (20, 3)  # Q: m x r

    def test_one_factor_per_step_vs_powersgd_two(self, rng):
        """The headline cost claim: one projection + one orthogonalization
        per step — the emitted payload alternates and is half of Power-SGD's
        (n r + m r) per step."""
        state = LowRankState(rank=2, seed=0, use_error_feedback=False)
        matrix = rng.normal(size=(8, 6))
        p_factor = state.compress("w", matrix, 1)
        adopted_product(state, p_factor, 1)
        q_factor = state.compress("w", matrix, 2)
        adopted_product(state, q_factor, 2)
        assert p_factor.size + q_factor.size == (8 + 6) * 2
        power = LowRankState(
            rank=2, seed=0, use_error_feedback=False, halves_per_step=2
        )
        both = []
        for half in power.halves(1):
            both.append(power.compress("w", matrix, half))
            power.adopt("w", both[-1], half)
        assert [f.shape for f in both] == [(8, 2), (6, 2)]


class TestConvergence:
    def test_converges_to_best_rank_r(self, rng):
        matrix = rng.normal(size=(20, 30))
        u, s, vt = np.linalg.svd(matrix)
        best = (u[:, :3] * s[:3]) @ vt[:3]
        state = LowRankState(rank=3, seed=1, use_error_feedback=False)
        # Each ACP step is half a power iteration, so allow twice the steps
        # Power-SGD needs for the same tolerance.
        m_hat = _run_steps(state, matrix, 80)
        np.testing.assert_allclose(
            np.linalg.norm(matrix - m_hat),
            np.linalg.norm(matrix - best),
            rtol=1e-3,
        )

    def test_exact_for_low_rank_matrix(self, rng):
        a = rng.normal(size=(12, 2))
        b = rng.normal(size=(9, 2))
        matrix = a @ b.T
        state = LowRankState(rank=2, seed=0, use_error_feedback=False)
        m_hat = _run_steps(state, matrix, 30)
        np.testing.assert_allclose(m_hat, matrix, atol=1e-6)

    def test_tracks_slowly_changing_gradients(self, rng):
        """The paper's argument: with small update steps, M_t ~ M_{t-1}, so
        alternate compression matches full power iteration quality."""
        state = LowRankState(rank=4, seed=2, use_error_feedback=False)
        base = rng.normal(size=(16, 16))
        m_hat = None
        for t in range(1, 60):
            drift = base + 0.01 * t * np.outer(np.ones(16), np.ones(16))
            factor = state.compress("w", drift, t)
            m_hat = adopted_product(state, factor, t)
        u, s, vt = np.linalg.svd(drift)
        best = (u[:, :4] * s[:4]) @ vt[:4]
        assert np.linalg.norm(drift - m_hat) < 1.2 * np.linalg.norm(drift - best)


class TestErrorFeedback:
    def test_cumulative_transmission_tracks_gradients(self, rng):
        state = LowRankState(rank=2, seed=3, use_error_feedback=True)
        base = rng.normal(size=(12, 16))
        accumulator = np.full(base.shape, -0.0)  # the rank's M + E
        total_in = np.zeros_like(base)
        total_out = np.zeros_like(base)
        for t in range(1, 200):
            grad = base + 0.1 * rng.normal(size=base.shape)
            accumulator += grad
            factor = state.compress("w", accumulator, t)
            m_hat = adopted_product(state, factor, t)
            total_in += grad
            total_out += m_hat
        gap = np.linalg.norm(total_out - total_in) / np.linalg.norm(total_in)
        assert gap < 0.15

    def test_error_matches_algorithm2(self, rng):
        """E_t = (M_t + E_{t-1}) - P_t Q_t^T with the LOCAL factor."""
        state = LowRankState(rank=2, seed=0, use_error_feedback=True)
        matrix = rng.normal(size=(6, 8))
        accumulator = matrix.copy()  # M_1 + E_0, E_0 = 0
        factor = state.compress("w", accumulator, 1)
        carried = state._carried["w"]  # orthonormal Q_t
        expected_error = matrix - factor @ carried.T
        np.testing.assert_allclose(accumulator, expected_error, atol=1e-12)

    def test_no_ef_loses_mass(self, rng):
        state = LowRankState(rank=1, seed=3, use_error_feedback=False)
        base = rng.normal(size=(12, 16))
        total_in = np.zeros_like(base)
        total_out = np.zeros_like(base)
        for t in range(1, 100):
            factor = state.compress("w", base, t)
            total_out += adopted_product(state, factor, t)
            total_in += base
        gap = np.linalg.norm(total_out - total_in) / np.linalg.norm(total_in)
        assert gap > 0.3


class TestProtocol:
    def test_finalize_requires_compress(self, rng):
        state = LowRankState(rank=2)
        with pytest.raises(RuntimeError, match="before compress"):
            state.adopt("w", rng.normal(size=(4, 2)), 1)

    def test_step_counter_one_based(self, rng):
        state = LowRankState(rank=2)
        with pytest.raises(ValueError, match="1-based"):
            state.compress("w", rng.normal(size=(4, 4)), 0)

    def test_matrix_validation(self, rng):
        state = LowRankState(rank=2)
        with pytest.raises(ValueError, match="matrix"):
            state.compress("w", rng.normal(size=4), 1)

    def test_shared_seed_factors_agree_across_workers(self, rng):
        """Two workers with the same seed emit mergeable factors: their
        carried (orthogonalized) factors are identical, so the all-reduce
        average is meaningful."""
        s1 = LowRankState(rank=2, seed=11)
        s2 = LowRankState(rank=2, seed=11)
        m1 = rng.normal(size=(8, 8))
        m2 = rng.normal(size=(8, 8))
        s1.compress("w", m1, 1)
        s2.compress("w", m2, 1)
        np.testing.assert_allclose(s1._carried["w"], s2._carried["w"], atol=1e-12)

    def test_reset(self, rng):
        state = LowRankState(rank=2)
        state.compress("w", rng.normal(size=(4, 4)), 1)
        state.reset()
        assert state._p == {} and state._q == {} and state._carried == {}

    def test_invalid_rank(self):
        with pytest.raises(ValueError, match="rank"):
            LowRankState(rank=0)


class TestDistributedEquivalence:
    def test_multi_worker_average_approximates_mean_gradient(self, rng):
        """Aggregating factors across workers approximates the mean gradient
        (cumulative, via EF)."""
        world = 4
        states = [LowRankState(rank=4, seed=9) for _ in range(world)]
        base = rng.normal(size=(10, 12))
        accumulators = [np.full(base.shape, -0.0) for _ in range(world)]
        total_mean = np.zeros_like(base)
        total_out = np.zeros_like(base)
        for t in range(1, 120):
            grads = [base + 0.2 * rng.normal(size=base.shape) for _ in range(world)]
            for accumulator, grad in zip(accumulators, grads):
                accumulator += grad
            factors = [
                s.compress("w", acc, t) for s, acc in zip(states, accumulators)
            ]
            agg = sum(factors) / world
            outs = [adopted_product(s, agg, t) for s in states]
            for out in outs[1:]:
                np.testing.assert_allclose(out, outs[0], atol=1e-10)
            total_mean += np.mean(grads, axis=0)
            total_out += outs[0]
        gap = np.linalg.norm(total_out - total_mean) / np.linalg.norm(total_mean)
        assert gap < 0.2
