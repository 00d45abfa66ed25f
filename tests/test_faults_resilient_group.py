"""ResilientProcessGroup: detect, retry/backoff, fall back, degrade, eject."""

import numpy as np
import pytest

from repro.faults.plan import (
    FaultInjector,
    FaultPlan,
    PermanentFailure,
    TransientFailure,
)
from repro.faults.resilient import BackoffPolicy, ResilientProcessGroup

pytestmark = pytest.mark.faults


def buffers_for(world_size, scale=1.0):
    return [np.full(8, float(rank + 1) * scale) for rank in range(world_size)]


def expected_sum(world_size, scale=1.0):
    return np.full(8, sum(range(1, world_size + 1)) * scale)


class TestBackoffPolicy:
    def test_exponential_with_cap(self):
        policy = BackoffPolicy(base_delay_s=0.01, multiplier=2.0, max_delay_s=0.05)
        assert policy.backoff_delay(1) == pytest.approx(0.01)
        assert policy.backoff_delay(2) == pytest.approx(0.02)
        assert policy.backoff_delay(3) == pytest.approx(0.04)
        assert policy.backoff_delay(4) == pytest.approx(0.05)  # capped
        assert policy.backoff_delay(9) == pytest.approx(0.05)

    def test_first_retry_pays_exactly_base_delay(self):
        # Boundary: the multiplier must not apply before the second retry.
        policy = BackoffPolicy(base_delay_s=0.25, multiplier=16.0)
        assert policy.backoff_delay(1) == pytest.approx(0.25)

    def test_clamp_when_base_equals_max(self):
        # Boundary: base == max clamps from the very first retry.
        policy = BackoffPolicy(base_delay_s=0.05, multiplier=3.0,
                               max_delay_s=0.05)
        for retry in (1, 2, 10):
            assert policy.backoff_delay(retry) == pytest.approx(0.05)

    def test_clamp_exactly_at_crossover_retry(self):
        # 0.01 * 2^(r-1) crosses max_delay_s=0.08 exactly at retry 4.
        policy = BackoffPolicy(base_delay_s=0.01, multiplier=2.0,
                               max_delay_s=0.08)
        assert policy.backoff_delay(3) == pytest.approx(0.04)
        assert policy.backoff_delay(4) == pytest.approx(0.08)
        assert policy.backoff_delay(5) == pytest.approx(0.08)

    def test_zero_base_delay_stays_zero(self):
        policy = BackoffPolicy(base_delay_s=0.0, multiplier=2.0)
        assert policy.backoff_delay(1) == 0.0
        assert policy.backoff_delay(7) == 0.0

    def test_retry_is_one_based(self):
        with pytest.raises(ValueError, match="1-based"):
            BackoffPolicy().backoff_delay(0)
        with pytest.raises(ValueError, match="1-based"):
            BackoffPolicy().backoff_delay(-3)

    def test_budgets_validated(self):
        with pytest.raises(ValueError, match="max_retries"):
            BackoffPolicy(max_retries=-1)
        with pytest.raises(ValueError, match="multiplier"):
            BackoffPolicy(multiplier=0.5)
        with pytest.raises(ValueError, match="call_timeout_s"):
            BackoffPolicy(call_timeout_s=0.0)
        with pytest.raises(ValueError, match="ring_failure_threshold"):
            BackoffPolicy(ring_failure_threshold=0)


class TestCleanOperation:
    def test_no_injector_behaves_like_plain_group(self):
        group = ResilientProcessGroup(4)
        result = group.all_reduce(buffers_for(4))
        assert np.allclose(result[0], expected_sum(4))
        assert group.stats.calls == 1 and group.stats.retries == 0
        assert not group.ring_disabled
        assert group.history[-1].algorithm == "allreduce_ring"

    def test_begin_step_returns_full_roster(self):
        group = ResilientProcessGroup(3)
        assert group.begin_step() == [0, 1, 2]
        assert group.world_size == 3


class TestRetryRecovery:
    def test_transient_failure_recovers_bit_exactly(self):
        plan = FaultPlan(
            seed=0, transient=(TransientFailure(rank=1, call_index=0, attempts=2),)
        )
        group = ResilientProcessGroup(2, injector=FaultInjector(plan))
        buffers = buffers_for(2)
        result = group.all_reduce(buffers)
        # Two failed attempts burned two retries, then the third attempt ran
        # on the original buffers: the reduction is exact, not degraded.
        assert np.array_equal(result[0], expected_sum(2))
        assert group.stats.retries == 2
        assert group.stats.drops_detected == 2  # a down rank looks dropped
        assert group.stats.degraded_calls == 0
        policy = group.policy
        assert group.stats.backoff_s == pytest.approx(
            policy.backoff_delay(1) + policy.backoff_delay(2)
        )
        # Backoff is accounted into the collective's delay, never slept.
        assert group.history[-1].delay_s == pytest.approx(group.stats.backoff_s)
        assert group.injected_delay_s() == pytest.approx(group.stats.backoff_s)

    def test_straggler_delay_accounted(self):
        plan = FaultPlan(seed=5, straggler_rate=1.0, straggler_delay_s=0.25)
        group = ResilientProcessGroup(2, injector=FaultInjector(plan))
        result = group.all_reduce(buffers_for(2))
        assert np.array_equal(result[0], expected_sum(2))  # slow, not wrong
        assert group.stats.straggler_delay_s == pytest.approx(0.25)
        assert group.stats.retries == 0


class TestTimeoutAndDegrade:
    def test_call_timeout_stops_retrying(self):
        policy = BackoffPolicy(max_retries=10, base_delay_s=1.0,
                               multiplier=1.0, max_delay_s=1.0,
                               call_timeout_s=1.5)
        plan = FaultPlan(
            seed=0, transient=(TransientFailure(rank=1, call_index=0, attempts=10),)
        )
        group = ResilientProcessGroup(2, injector=FaultInjector(plan),
                                      policy=policy)
        result = group.all_reduce(buffers_for(2), average=True)
        # One retry fit the 1.5s budget; the second would exceed it.
        assert group.stats.retries == 1
        assert group.stats.timeouts == 1
        assert group.stats.degraded_calls == 1
        # Degraded average rescales to the single contributing rank.
        assert np.array_equal(result[0], buffers_for(2)[0])

    def test_exhausted_retries_degrade_with_rescaled_average(self):
        policy = BackoffPolicy(max_retries=1)
        plan = FaultPlan(
            seed=0, transient=(TransientFailure(rank=2, call_index=0, attempts=5),)
        )
        group = ResilientProcessGroup(3, injector=FaultInjector(plan),
                                      policy=policy)
        buffers = buffers_for(3)
        result = group.all_reduce(buffers, average=True)
        # Ranks 0 and 1 contributed; the mean divides by 2, not 3.
        assert np.allclose(result[0], (buffers[0] + buffers[1]) / 2)
        assert group.stats.degraded_calls == 1
        assert group.live_ranks == [0, 1, 2]  # transient: no ejection

    def test_degraded_all_gather_omits_failed_payloads(self):
        policy = BackoffPolicy(max_retries=0)
        plan = FaultPlan(
            seed=0, transient=(TransientFailure(rank=1, call_index=0, attempts=5),)
        )
        group = ResilientProcessGroup(2, injector=FaultInjector(plan),
                                      policy=policy)
        gathered = group.all_gather([np.ones(3), np.full(5, 2.0)])
        assert len(gathered) == 2  # one view per caller rank
        # Rank 1's payload omitted, its position kept.
        assert [None if p is None else p.size for p in gathered[0]] == [3, None]

    def test_no_healthy_rank_raises(self):
        policy = BackoffPolicy(max_retries=1)
        plan = FaultPlan(seed=0, drop_rate=1.0)
        group = ResilientProcessGroup(2, injector=FaultInjector(plan),
                                      policy=policy)
        with pytest.raises(RuntimeError, match="no healthy rank"):
            group.all_reduce(buffers_for(2))


class TestRingFallback:
    def test_consecutive_failures_switch_to_naive(self):
        plan = FaultPlan(seed=0, transient=tuple(
            TransientFailure(rank=1, call_index=call, attempts=1)
            for call in range(3)
        ))
        group = ResilientProcessGroup(
            2, injector=FaultInjector(plan),
            policy=BackoffPolicy(ring_failure_threshold=3),
        )
        buffers = buffers_for(2)
        for _ in range(3):
            assert np.array_equal(group.all_reduce(buffers)[0], expected_sum(2))
            # Each call recovered via retry, so numerics never degraded...
        # ...but three consecutive retry-burning calls disable the ring.
        assert group.ring_disabled
        result = group.all_reduce(buffers)
        assert np.array_equal(result[0], expected_sum(2))
        assert group.history[-1].algorithm == "allreduce_naive"
        # The third failing call already dispatched naive (health is noted
        # before dispatch), so two naive calls have run by now.
        assert group.stats.ring_fallback_calls == 2
        assert "naive fallback" in group.resilience_report()

    def test_clean_call_resets_the_failure_streak(self):
        plan = FaultPlan(seed=0, transient=(
            TransientFailure(rank=1, call_index=0, attempts=1),
            TransientFailure(rank=1, call_index=1, attempts=1),
            # call 2 is clean; the streak restarts.
            TransientFailure(rank=1, call_index=3, attempts=1),
        ))
        group = ResilientProcessGroup(
            2, injector=FaultInjector(plan),
            policy=BackoffPolicy(ring_failure_threshold=3),
        )
        for _ in range(4):
            group.all_reduce(buffers_for(2))
        assert not group.ring_disabled


class TestPermanentLoss:
    def test_dead_rank_ejected_at_step_boundary(self):
        policy = BackoffPolicy(max_retries=1)
        plan = FaultPlan(seed=0, permanent=(PermanentFailure(rank=2, call_index=1),))
        group = ResilientProcessGroup(3, injector=FaultInjector(plan),
                                      policy=policy)
        buffers = buffers_for(3)
        assert np.array_equal(group.all_reduce(buffers)[0], expected_sum(3))

        # Call 1: rank 2 dies; the call degrades but the world is unchanged
        # until the next step boundary (no mid-step size changes).
        result = group.all_reduce(buffers, average=True)
        assert np.allclose(result[0], (buffers[0] + buffers[1]) / 2)
        assert group.world_size == 3 and group.live_ranks == [0, 1, 2]

        # Call 2, still pre-boundary: the known-dead rank costs no retries.
        retries_before = group.stats.retries
        group.all_reduce(buffers, average=True)
        assert group.stats.retries == retries_before

        assert group.begin_step() == [0, 1]
        assert group.world_size == 2
        assert group.ranks_of("eject") == [2]
        assert "live world 2 (started at 3)" in group.resilience_report()

        # Post-ejection the caller supplies one buffer per survivor and the
        # ring re-chunks to the shrunken world.
        survivors = buffers_for(2)
        result = group.all_reduce(survivors, average=True)
        assert np.allclose(result[0], (survivors[0] + survivors[1]) / 2)
        assert group.history[-1].world_size == 2

    def test_all_ranks_dead_raises(self):
        policy = BackoffPolicy(max_retries=0)
        plan = FaultPlan(seed=0, permanent=(
            PermanentFailure(rank=0, call_index=0),
            PermanentFailure(rank=1, call_index=0),
        ))
        group = ResilientProcessGroup(2, injector=FaultInjector(plan),
                                      policy=policy)
        with pytest.raises(RuntimeError, match="no healthy rank"):
            group.all_reduce(buffers_for(2))
        with pytest.raises(RuntimeError, match="all ranks have failed"):
            group.begin_step()


class TestMembershipStats:
    def test_initial_timeline_entry(self):
        group = ResilientProcessGroup(4)
        assert group.world_size_timeline == [(0, 4)]
        assert group.changes == []

    def test_ejection_then_rejoin_counts_and_timeline(self):
        plan = FaultPlan(seed=0, permanent=(
            PermanentFailure(rank=1, call_index=0),
        ))
        group = ResilientProcessGroup(3, injector=FaultInjector(plan),
                                      policy=BackoffPolicy(max_retries=0))
        group.all_reduce(buffers_for(3))
        assert group.begin_step() == [0, 2]
        assert group.ranks_of("eject") == [1]

        change = group.admit(1, rejoin=True)
        assert group.live_ranks == [0, 1, 2]
        assert group.world_size == 3
        assert group.ranks_of("rejoin") == [1]
        assert (change.kind, change.donor, change.world_size) == ("rejoin", 0, 3)
        assert group.changes[-1] is change
        sizes = [size for _, size in group.world_size_timeline]
        assert sizes == [3, 2, 3]

    def test_join_allocates_fresh_rank_id(self):
        group = ResilientProcessGroup(3)
        rank = group.allocate_rank()
        assert rank == 3  # never collides with 0..2
        group.admit(rank, rejoin=False)
        assert group.live_ranks == [0, 1, 2, 3]
        assert group.ranks_of("join") == [3]
        # Ids are never recycled, even past an ejection.
        assert group.allocate_rank() == 4

    def test_admit_live_rank_rejected(self):
        group = ResilientProcessGroup(2)
        with pytest.raises(ValueError, match="already live"):
            group.admit(1, rejoin=True)

    def test_report_renders_membership_lines(self):
        group = ResilientProcessGroup(2)
        group.admit(group.allocate_rank(), rejoin=False)
        report = group.resilience_report()
        assert "live world 3 (started at 2)" in report
        assert "membership changes    1" in report
        assert "call    0: join   rank 2 (state from rank 0) -> world 3" in report
        assert "world-size timeline   2@call0 -> 3@call0" in report

    def test_averaging_rescales_after_scale_up(self):
        group = ResilientProcessGroup(2)
        group.admit(group.allocate_rank(), rejoin=False)
        result = group.all_reduce(buffers_for(3), average=True)
        assert np.allclose(result[0], expected_sum(3) / 3)


class TestCorruptionDetection:
    def test_bitflip_caught_by_checksum_and_retried(self):
        # A bit flip may stay finite; the CRC must still catch every one.
        plan = FaultPlan(seed=6, corrupt_rate=0.25, corrupt_mode="bitflip")
        group = ResilientProcessGroup(2, injector=FaultInjector(plan))
        buffers = buffers_for(2)
        for _ in range(30):
            result = group.all_reduce(buffers)
            if group.stats.degraded_calls == 0:
                assert np.array_equal(result[0], expected_sum(2))
        assert group.stats.corruptions_detected > 0
        assert group.stats.retries > 0


class TestDeterministicJitter:
    def test_jitter_validated(self):
        with pytest.raises(ValueError, match="jitter"):
            BackoffPolicy(jitter=1.0)
        with pytest.raises(ValueError, match="jitter"):
            BackoffPolicy(jitter=-0.1)

    def test_zero_jitter_is_pure_exponential(self):
        policy = BackoffPolicy(base_delay_s=0.01, multiplier=2.0)
        rng = FaultPlan(seed=3).jitter_rng(0, 1)
        assert policy.backoff_delay(2, rng=rng) == pytest.approx(0.02)

    def test_no_rng_means_no_jitter(self):
        policy = BackoffPolicy(base_delay_s=0.01, multiplier=2.0, jitter=0.5)
        assert policy.backoff_delay(1) == pytest.approx(0.01)

    def test_jitter_stays_within_band(self):
        policy = BackoffPolicy(base_delay_s=0.01, multiplier=1.0,
                               max_delay_s=0.01, jitter=0.3)
        plan = FaultPlan(seed=11)
        for call in range(50):
            delay = policy.backoff_delay(1, rng=plan.jitter_rng(call, 1))
            assert 0.007 <= delay <= 0.013

    def test_jitter_draw_is_a_pure_function_of_seed_call_retry(self):
        policy = BackoffPolicy(base_delay_s=0.01, jitter=0.5)
        plan = FaultPlan(seed=11)
        a = policy.backoff_delay(1, rng=plan.jitter_rng(4, 1))
        b = policy.backoff_delay(1, rng=plan.jitter_rng(4, 1))
        assert a == b  # bit-identical, not just approximately equal
        # ...and actually sensitive to each coordinate of the stream key.
        assert a != policy.backoff_delay(1, rng=plan.jitter_rng(5, 1))
        assert a != policy.backoff_delay(1, rng=plan.jitter_rng(4, 2))
        other = FaultPlan(seed=12)
        assert a != policy.backoff_delay(1, rng=other.jitter_rng(4, 1))

    def test_jittered_run_replays_bit_identically(self):
        def run():
            policy = BackoffPolicy(base_delay_s=0.01, jitter=0.4)
            plan = FaultPlan(seed=2, transient=(
                TransientFailure(rank=1, call_index=0, attempts=2),
                TransientFailure(rank=0, call_index=3, attempts=1),
            ))
            group = ResilientProcessGroup(2, injector=FaultInjector(plan),
                                          policy=policy)
            for _ in range(5):
                group.all_reduce(buffers_for(2))
            return group.stats.backoff_s

        first, second = run(), run()
        assert first > 0.0
        assert first == second  # same plan seed -> same jittered delays

    def test_jitter_perturbs_accounted_backoff(self):
        def total_backoff(jitter):
            policy = BackoffPolicy(base_delay_s=0.01, jitter=jitter)
            plan = FaultPlan(seed=2, transient=(
                TransientFailure(rank=1, call_index=0, attempts=2),
            ))
            group = ResilientProcessGroup(2, injector=FaultInjector(plan),
                                          policy=policy)
            group.all_reduce(buffers_for(2))
            return group.stats.backoff_s

        assert total_backoff(0.4) != pytest.approx(total_backoff(0.0))


class TestSegmentRetryAndFallback:
    """all_reduce_segment(_) at world size 2 under a mid-segment drop."""

    SEGMENTS = ((0, 8), (8, 8), (16, 8))  # three buckets of one flat model
    TOTAL = 24

    def _bucket_buffers(self, scale=1.0):
        return [
            [np.full(8, float(rank + 1) * scale + seg) for rank in range(2)]
            for seg, _ in enumerate(self.SEGMENTS)
        ]

    def _run_segments(self, group, average=False):
        out = []
        for (seg_start, _), buffers in zip(self.SEGMENTS,
                                           self._bucket_buffers()):
            out.append(group.all_reduce_segment(
                buffers, seg_start, self.TOTAL, average=average)[0])
        return out

    def test_mid_segment_drop_retries_to_bit_exact(self):
        # The drop hits the middle bucket (call index 1) only; after the
        # retry every bucket must match a clean group bit for bit.
        plan = FaultPlan(seed=0, transient=(
            TransientFailure(rank=1, call_index=1, attempts=2),
        ))
        faulty = ResilientProcessGroup(2, injector=FaultInjector(plan))
        clean = ResilientProcessGroup(2)
        faulty_out = self._run_segments(faulty)
        clean_out = self._run_segments(clean)
        for got, want in zip(faulty_out, clean_out):
            assert np.array_equal(got, want)
        assert faulty.stats.retries == 2
        assert faulty.stats.degraded_calls == 0
        # Backoff was charged for the retried bucket, not slept.
        assert faulty.stats.backoff_s > 0.0

    def test_exhausted_retries_degrade_only_the_hit_bucket(self):
        policy = BackoffPolicy(max_retries=1)
        plan = FaultPlan(seed=0, transient=(
            TransientFailure(rank=1, call_index=1, attempts=5),
        ))
        group = ResilientProcessGroup(2, injector=FaultInjector(plan),
                                      policy=policy)
        out = self._run_segments(group, average=True)
        buffers = self._bucket_buffers()
        # Buckets 0 and 2 average both ranks; bucket 1 degrades to the
        # single surviving contributor (rank 0), rescaled accordingly.
        assert np.allclose(out[0], (buffers[0][0] + buffers[0][1]) / 2)
        assert np.array_equal(out[1], buffers[1][0])
        assert np.allclose(out[2], (buffers[2][0] + buffers[2][1]) / 2)
        assert group.stats.degraded_calls == 1
        assert group.live_ranks == [0, 1]  # transient fault: no ejection

    def test_fallback_threshold_switches_segments_to_naive(self):
        policy = BackoffPolicy(max_retries=0, ring_failure_threshold=1)
        plan = FaultPlan(seed=0, transient=(
            TransientFailure(rank=1, call_index=0, attempts=1),
        ))
        group = ResilientProcessGroup(2, injector=FaultInjector(plan),
                                      policy=policy)
        self._run_segments(group)
        # Call 0 tripped the one-strike threshold before its reduction ran,
        # so all three bucket calls took the naive path.
        assert group.stats.ring_fallback_calls == 3
        assert group.history[-1].algorithm == "allreduce_naive"

    def test_naive_fallback_segment_matches_ring_values(self):
        policy = BackoffPolicy(max_retries=0, ring_failure_threshold=1)
        plan = FaultPlan(seed=0, transient=(
            TransientFailure(rank=1, call_index=0, attempts=1),
        ))
        faulty = ResilientProcessGroup(2, injector=FaultInjector(plan),
                                       policy=policy)
        clean = ResilientProcessGroup(2)
        faulty_out = self._run_segments(faulty)
        clean_out = self._run_segments(clean)
        # Buckets 1 and 2 (clean calls, naive algorithm) still reduce to
        # the same values the healthy ring computes.
        for got, want in zip(faulty_out[1:], clean_out[1:]):
            assert np.allclose(got, want)

    def test_in_place_variant_copies_result_back(self):
        plan = FaultPlan(seed=0, transient=(
            TransientFailure(rank=1, call_index=0, attempts=2),
        ))
        group = ResilientProcessGroup(2, injector=FaultInjector(plan))
        buffers = [np.full(8, 1.0), np.full(8, 2.0)]
        returned = group.all_reduce_segment_(buffers, 0, self.TOTAL)
        assert returned is buffers
        for buf in buffers:
            assert np.array_equal(buf, np.full(8, 3.0))
        assert group.stats.retries == 2
