"""Fault plans, the injector, payload validation, and collective dtype checks."""

import numpy as np
import pytest

from repro.comm import collectives
from repro.faults.plan import (
    FaultInjector,
    FaultPlan,
    PermanentFailure,
    TransientFailure,
    corrupt_payload,
)
from repro.utils.validation import is_finite, payload_checksum

pytestmark = pytest.mark.faults


class TestFaultPlanValidation:
    def test_rates_must_be_probabilities(self):
        with pytest.raises(ValueError, match="drop_rate"):
            FaultPlan(drop_rate=1.5)
        with pytest.raises(ValueError, match="corrupt_rate"):
            FaultPlan(corrupt_rate=-0.1)

    def test_corrupt_mode_checked(self):
        with pytest.raises(ValueError, match="corrupt_mode"):
            FaultPlan(corrupt_mode="scramble")

    def test_scheduled_failures_validated(self):
        with pytest.raises(ValueError, match="attempts"):
            TransientFailure(rank=0, call_index=0, attempts=0)
        with pytest.raises(ValueError, match="rank"):
            PermanentFailure(rank=-1, call_index=0)

    def test_rank_down_semantics(self):
        plan = FaultPlan(
            transient=(TransientFailure(rank=1, call_index=3, attempts=2),),
            permanent=(PermanentFailure(rank=2, call_index=5),),
        )
        # Transient: down only for the scheduled call's first two attempts.
        assert plan.rank_down(3, 0, 1) and plan.rank_down(3, 1, 1)
        assert not plan.rank_down(3, 2, 1)
        assert not plan.rank_down(4, 0, 1)
        # Permanent: down for every call at or after the scheduled one.
        assert not plan.rank_down(4, 0, 2)
        assert plan.rank_down(5, 0, 2) and plan.rank_down(9, 3, 2)
        assert plan.permanently_dead(4) == set()
        assert plan.permanently_dead(5) == {2}


class TestFaultInjectorDeterminism:
    def test_same_plan_same_draws(self):
        plan = FaultPlan(seed=3, drop_rate=0.3, corrupt_rate=0.2,
                         straggler_rate=0.2)
        first = FaultInjector(plan)
        second = FaultInjector(plan)
        for call in range(20):
            a = first.sample(call, 0, [0, 1, 2])
            b = second.sample(call, 0, [0, 1, 2])
            assert a.dropped == b.dropped
            assert a.corrupted == b.corrupted
            assert a.straggler_delay_s == b.straggler_delay_s
        assert first.events == second.events

    def test_retry_resamples_random_faults(self):
        # Attempt is part of the RNG key: across many calls, at least one
        # drop on attempt 0 must clear on attempt 1 (a retransmit usually
        # succeeds, like a real network).
        plan = FaultPlan(seed=0, drop_rate=0.4)
        injector = FaultInjector(plan)
        recovered = 0
        for call in range(50):
            if injector.sample(call, 0, [0, 1]).dropped - \
                    injector.sample(call, 1, [0, 1]).dropped:
                recovered += 1
        assert recovered > 0

    def test_events_log_and_filter(self):
        plan = FaultPlan(
            seed=1, transient=(TransientFailure(rank=0, call_index=0),)
        )
        injector = FaultInjector(plan)
        faults = injector.sample(0, 0, [0, 1])
        assert faults.down == {0}
        assert not faults.clean and faults.faulty_ranks == {0}
        assert [e.rank for e in injector.events_of_kind("down")] == [0]
        assert injector.events_of_kind("drop") == []

    def test_apply_marks_drops_and_corruption(self):
        plan = FaultPlan(seed=2, corrupt_mode="nan")
        injector = FaultInjector(plan)
        buffers = [np.ones(8), np.full(8, 2.0)]
        faults = injector.sample(0, 0, [0, 1])
        faults.dropped.add(0)
        faults.corrupted.add(1)
        received = injector.apply(buffers, [0, 1], faults)
        assert received[0] is None
        assert np.isnan(received[1]).sum() == 1
        assert not np.isnan(buffers[1]).any()  # original untouched


class TestCorruptPayload:
    def test_nan_mode_poisons_one_element(self):
        rng = np.random.default_rng(0)
        original = np.arange(16, dtype=np.float64)
        corrupted = corrupt_payload(original, rng, "nan")
        assert np.isnan(corrupted).sum() == 1
        assert np.array_equal(original, np.arange(16))

    def test_bitflip_changes_exactly_one_bit(self):
        rng = np.random.default_rng(4)
        original = np.linspace(-1, 1, 32)
        corrupted = corrupt_payload(original, rng, "bitflip")
        xored = np.frombuffer(original.tobytes(), dtype=np.uint8) ^ \
            np.frombuffer(corrupted.tobytes(), dtype=np.uint8)
        assert sum(bin(b).count("1") for b in xored) == 1
        # The CRC must catch it even when the flipped value stays finite.
        assert payload_checksum(corrupted) != payload_checksum(original)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown corrupt mode"):
            corrupt_payload(np.ones(4), np.random.default_rng(0), "garble")


class TestValidationUtils:
    def test_is_finite(self):
        assert is_finite(np.zeros(3))
        assert is_finite(np.arange(3))
        assert not is_finite(np.array([1.0, np.nan]))
        assert not is_finite(np.array([np.inf]))

    def test_checksum_is_content_sensitive(self):
        arr = np.arange(64, dtype=np.float64)
        assert payload_checksum(arr) == payload_checksum(arr.copy())
        tweaked = arr.copy()
        tweaked[17] += 1e-12
        assert payload_checksum(tweaked) != payload_checksum(arr)


class TestCollectiveDtypeValidation:
    def test_all_gather_rejects_mixed_dtypes_naming_rank(self):
        buffers = [np.ones(4, dtype=np.float64),
                   np.ones(6, dtype=np.float32)]
        with pytest.raises(ValueError, match="rank 1 buffer dtype float32"):
            collectives.all_gather(buffers)

    def test_shapes_may_still_differ(self):
        # Top-k payload sizes legitimately differ across ranks.
        buffers = [np.ones(4), np.ones(6)]
        gathered, _ = collectives.all_gather(buffers)
        assert [p.size for p in gathered[0]] == [4, 6]

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="at least one rank"):
            collectives.all_gather([])
