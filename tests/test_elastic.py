"""Elastic membership: eject, rejoin, scale up — deterministically.

The ISSUE acceptance scenarios:

- a churn schedule (permanent failure -> recovery -> brand-new join)
  trains to convergence within tolerance of the fault-free run, for both
  S-SGD and ACP-SGD;
- data shards stay pairwise disjoint and jointly exhaustive at every
  world size the run visits;
- the same churn schedule replayed twice is bit-identical, including the
  p -> p-1 -> p round trip;
- admissions warm-start compressor state (shared factors copied from the
  donor, error-feedback residuals zeroed) so a joiner never desyncs the
  aggregated trajectory.
"""

import numpy as np
import pytest

from repro.compression.lowrank import LowRankState
from repro.faults import (
    FaultInjector,
    FaultPlan,
    Join,
    PermanentFailure,
    Recovery,
    ResilientProcessGroup,
)
from repro.faults.resilient import BackoffPolicy
from repro.models.convnets import make_mlp
from repro.optim import SGD, make_aggregator
from repro.train import DataParallelTrainer, ResilienceConfig
from repro.train.datasets import ArrayDataset

pytestmark = pytest.mark.faults


def make_data(seed=0, samples=96, features=6, classes=3):
    rng = np.random.default_rng(seed)
    inputs = rng.normal(size=(samples, features))
    labels = rng.integers(0, classes, size=samples)
    return ArrayDataset(inputs, labels), ArrayDataset(
        inputs[:16].copy(), labels[:16].copy()
    )


CHURN_PLAN = FaultPlan(
    seed=3,
    permanent=(PermanentFailure(rank=2, call_index=4),),
    recoveries=(Recovery(rank=2, call_index=10),),
    joins=(Join(call_index=16),),
)

ROUND_TRIP_PLAN = FaultPlan(
    seed=5,
    permanent=(PermanentFailure(rank=1, call_index=3),),
    recoveries=(Recovery(rank=1, call_index=9),),
)

EJECT_ONLY_PLAN = FaultPlan(
    seed=3, permanent=(PermanentFailure(rank=1, call_index=4),)
)


def make_elastic_trainer(world_size=3, method="acpsgd", plan=CHURN_PLAN,
                         resilience=None):
    train_data, test_data = make_data()
    model = make_mlp(6, 10, 3, rng=np.random.default_rng(5))
    group = ResilientProcessGroup(
        world_size, injector=FaultInjector(plan),
        policy=BackoffPolicy(max_retries=1),
    )
    kwargs = {"rank": 2} if method in ("acpsgd", "powersgd") else {}
    aggregator = make_aggregator(method, group, **kwargs)
    trainer = DataParallelTrainer(
        model, SGD(model, lr=0.05, momentum=0.9), aggregator,
        train_data, test_data, batch_size_per_worker=8, seed=11,
        resilience=resilience,
    )
    return trainer, group, model


def kinds(group):
    return [change.kind for change in group.changes]


def shard_ids(trainer):
    """The sample ids (first feature, int-cast) each rank currently owns."""
    return {
        rank: shard.inputs[:, 0].tolist()
        for rank, shard in trainer.train_shards.items()
    }


class TestChurnTraining:
    """The tentpole end-to-end scenario, for a plain and a stateful method."""

    @pytest.mark.parametrize("method", ["ssgd", "acpsgd"])
    def test_churn_run_converges_close_to_fault_free(self, method):
        elastic, group, elastic_model = make_elastic_trainer(method=method)
        history = elastic.run(3, 12, method_label=method)

        # The schedule really played out: eject, rejoin, then scale-up.
        assert kinds(group) == ["eject", "rejoin", "join"]
        assert group.live_ranks == [0, 1, 2, 3]
        assert [group.ranks_of(kind) for kind in ("eject", "rejoin", "join")] == [
            [2], [2], [3]
        ]

        # Fault-free control: same model/data/seed, no churn.
        clean, _, clean_model = make_elastic_trainer(
            method=method, plan=FaultPlan(seed=3)
        )
        clean_history = clean.run(3, 12, method_label=method)

        assert np.isfinite(history.train_loss).all()
        final = history.train_loss[-1]
        clean_final = clean_history.train_loss[-1]
        # Churn perturbs the trajectory (different shards, world sizes)
        # but must not break optimization: the run keeps descending and
        # lands in the clean run's neighbourhood.
        assert history.train_loss[-1] < history.train_loss[0]
        assert final < clean_final + 0.5

    @pytest.mark.parametrize("method, plan, worlds", [
        pytest.param("ssgd", CHURN_PLAN, {2, 3, 4}, id="ssgd"),
        pytest.param("acpsgd", CHURN_PLAN, {2, 3, 4}, id="acpsgd"),
        # A permanent failure alone: the survivors take over the ejected
        # rank's samples instead of the run never drawing them again.
        pytest.param("ssgd", EJECT_ONLY_PLAN, {2, 3}, id="ssgd-eject-only"),
    ])
    def test_shards_partition_data_at_every_world_size(self, method, plan, worlds):
        trainer, group, _ = make_elastic_trainer(method=method, plan=plan)
        all_ids = sorted(trainer.train_data.inputs[:, 0].tolist())
        seen_worlds = set()
        for _ in range(30):
            trainer.train_step()
            seen_worlds.add(len(group.live_ranks))
            owned = shard_ids(trainer)
            live = set(trainer.aggregator.roster)
            assert set(owned) == live
            flat = [s for ids in owned.values() for s in ids]
            assert len(flat) == len(set(flat)), "shards overlap"
            assert sorted(flat) == all_ids, "samples lost after re-shard"
        # The run actually visited every world size of its plan.
        assert seen_worlds == worlds

    def test_churn_replay_is_bit_identical(self):
        first, _, first_model = make_elastic_trainer()
        first.run(2, 12, method_label="acpsgd")

        second, _, second_model = make_elastic_trainer()
        second.run(2, 12, method_label="acpsgd")

        assert np.array_equal(
            first_model.state_vector(), second_model.state_vector()
        )

    def test_round_trip_p_to_p_minus_1_to_p_is_deterministic(self):
        """p -> p-1 -> p: the rejoin restores the original world size and
        the whole trajectory replays step-for-step."""
        runs = []
        for _ in range(2):
            trainer, group, model = make_elastic_trainer(
                world_size=3, plan=ROUND_TRIP_PLAN
            )
            per_step_weights = []
            for _ in range(15):
                trainer.train_step()
                per_step_weights.append(model.state_vector().copy())
            runs.append(per_step_weights)
            assert group.live_ranks == [0, 1, 2]
            sizes = [size for _, size in group.world_size_timeline]
            assert sizes == [3, 2, 3]
        for step, (a, b) in enumerate(zip(*runs)):
            assert np.array_equal(a, b), f"step {step} diverged between replays"

    def test_elastic_works_with_resilience_ladder(self):
        trainer, group, _ = make_elastic_trainer(
            resilience=ResilienceConfig(checkpoint_interval=0)
        )
        history = trainer.run(2, 12, method_label="acpsgd")
        assert np.isfinite(history.train_loss).all()
        assert group.ranks_of("rejoin") == [2]

    def test_the_group_alone_admits_its_plans_rejoin_and_join(self):
        """No object besides the group and its plan: the trainer syncs each
        admission from its donor, over the roster that admission made."""
        trainer, group, model = make_elastic_trainer(plan=FaultPlan(
            seed=3,
            permanent=(PermanentFailure(rank=2, call_index=1),),
            recoveries=(Recovery(rank=2, call_index=4),),
            joins=(Join(call_index=4),),
        ))
        for _ in range(6):
            trainer.train_step()
        assert group.live_ranks == [0, 1, 2, 3] and group.world_size == 4
        assert [(c.kind, c.rank, c.donor, c.world_size) for c in group.changes] == [
            ("eject", 2, None, 2), ("rejoin", 2, 0, 3), ("join", 3, 0, 4)
        ]
        # Both admissions commit at one boundary; each broadcast runs over
        # the roster its own admission produced.
        broadcasts = [s for s in group.history if s.algorithm == "broadcast"]
        assert [s.world_size for s in broadcasts] == [3, 4]
        # Each ships the donor's float32 weights and momentum velocity (one
        # per parameter by then) once per hop of a ring of that world.
        elements = 2 * sum(p.data.size for _, p in model.named_parameters())
        assert [s.total_bytes for s in broadcasts] == [
            (world - 1) * elements * 4 for world in (3, 4)
        ]
        assert list(trainer.train_shards) == [0, 1, 2, 3]


class TestMembershipController:
    """What ``ResilientProcessGroup.begin_step`` commits, on the group alone."""

    def test_needs_a_plan_or_an_injector(self):
        # The schedule is the injector's plan; without one nothing is due.
        group = ResilientProcessGroup(2)
        assert group.begin_step() == [0, 1]
        assert group.changes == []
        plan = FaultPlan(seed=0, joins=(Join(call_index=0),))
        group = ResilientProcessGroup(2, injector=FaultInjector(plan))
        assert group.begin_step() == [0, 1, 2]

    def test_events_commit_only_once_their_call_index_passes(self):
        plan = FaultPlan(seed=0, joins=(Join(call_index=2),))
        group = ResilientProcessGroup(2, injector=FaultInjector(plan))
        assert group.begin_step() == [0, 1]  # call index still 0
        assert group.changes == []
        group.all_reduce([np.ones(4), np.ones(4)])
        group.all_reduce([np.ones(4), np.ones(4)])
        assert group.begin_step() == [0, 1, 2]
        assert group.begin_step() == [0, 1, 2]  # committed exactly once
        assert [c.kind for c in group.changes] == ["join"]
        assert group.changes[-1].donor == 0

    def test_recovery_for_never_ejected_rank_is_a_noop(self):
        # The recovery's call index precedes the failure's: latest event
        # wins, the rank never goes down, and the admission is skipped.
        plan = FaultPlan(
            seed=0,
            permanent=(PermanentFailure(rank=1, call_index=50),),
            recoveries=(Recovery(rank=1, call_index=1),),
        )
        group = ResilientProcessGroup(2, injector=FaultInjector(plan))
        group.all_reduce([np.ones(4), np.ones(4)])
        assert group.begin_step() == [0, 1]
        assert group.changes == []

    def test_ejection_recorded_in_log(self):
        plan = FaultPlan(
            seed=0, permanent=(PermanentFailure(rank=0, call_index=0),)
        )
        group = ResilientProcessGroup(
            2, injector=FaultInjector(plan),
            policy=BackoffPolicy(max_retries=0),
        )
        group.all_reduce([np.ones(4), np.ones(4)])
        assert group.begin_step() == [1]
        assert group.ranks_of("eject") == [0]
        assert group.changes[0].donor is None
        assert "call    1: eject  rank 0 -> world 1" in group.resilience_report()

    def test_unbound_controller_manages_roster_only(self):
        # Without a sync callback the group changes its roster and nothing
        # else: no state broadcast is issued.
        plan = FaultPlan(seed=0, joins=(Join(call_index=0),))
        group = ResilientProcessGroup(2, injector=FaultInjector(plan))
        assert group.begin_step() == [0, 1, 2]
        assert group.ranks_of("join") == [2]
        assert group.history == []

    def test_scheduled_rejoin_commits_after_its_boundaries(self):
        group = ResilientProcessGroup(3)
        group.mark_worker_failed(1)
        group.schedule_rejoin(1, after_boundaries=2)
        assert group.begin_step() == [0, 2]
        assert group.begin_step() == [0, 1, 2]
        assert [(c.kind, c.rank) for c in group.changes] == [
            ("eject", 1), ("rejoin", 1)
        ]
        with pytest.raises(ValueError, match="after_boundaries"):
            group.schedule_rejoin(1, after_boundaries=0)


class TestPlanMembershipSemantics:
    def test_latest_event_wins(self):
        plan = FaultPlan(
            seed=0,
            permanent=(
                PermanentFailure(rank=1, call_index=2),
                PermanentFailure(rank=1, call_index=20),
            ),
            recoveries=(Recovery(rank=1, call_index=10),),
        )
        assert not plan.permanently_down(1, 1)   # before first failure
        assert plan.permanently_down(1, 2)       # failed
        assert plan.permanently_down(1, 9)       # still down
        assert not plan.permanently_down(1, 10)  # recovered
        assert plan.permanently_down(1, 20)      # failed again
        assert plan.permanently_down(1, 99)      # no later recovery
        assert plan.permanently_dead(5) == {1}
        assert plan.permanently_dead(15) == set()

    def test_membership_events_commit_order(self):
        plan = FaultPlan(
            seed=0,
            recoveries=(Recovery(rank=2, call_index=7),
                        Recovery(rank=0, call_index=7)),
            joins=(Join(call_index=7), Join(call_index=3)),
        )
        events = plan.membership_events()
        # By call index; at a tie, recoveries (by rank) before joins.
        assert isinstance(events[0], Join) and events[0].call_index == 3
        assert isinstance(events[1], Recovery) and events[1].rank == 0
        assert isinstance(events[2], Recovery) and events[2].rank == 2
        assert isinstance(events[3], Join)

    def test_event_validation(self):
        with pytest.raises(ValueError, match="rank"):
            Recovery(rank=-1, call_index=0)
        with pytest.raises(ValueError, match="call_index"):
            Recovery(rank=0, call_index=-1)
        with pytest.raises(ValueError, match="call_index"):
            Join(call_index=-2)


class TestCompressorWarmStart:
    def test_powersgd_warm_start_copies_query_zeroes_error(self):
        rng = np.random.default_rng(0)
        group = ResilientProcessGroup(2)
        aggregator = make_aggregator("powersgd", group, rank=2, seed=7)
        for _ in range(3):
            aggregator.aggregate([{"w": rng.normal(size=(6, 4))} for _ in range(2)])
        arena = aggregator._arena
        assert arena.slab(0).any()  # the donor accumulated a residual

        group.admit(group.allocate_rank(), rejoin=False)
        aggregator.admit_rank(2, donor_rank=0)
        aggregator.set_roster([0, 1, 2])
        # The joiner's residual starts empty; the survivors keep theirs.
        assert arena.slab(2).tobytes() == np.full(24, -0.0).tobytes()
        assert arena.slab(0).any()
        donor, joiner = aggregator.state_for(0), aggregator.state_for(2)
        assert set(joiner._q) == set(donor._q)
        assert np.array_equal(joiner._q["w"], donor._q["w"])
        assert np.array_equal(joiner._p["w"], donor._p["w"])
        # A deep copy: mutating the joiner's never touches the donor's.
        joiner._q["w"][0, 0] += 1.0
        assert not np.array_equal(joiner._q["w"], donor._q["w"])

    def test_acpsgd_warm_start_syncs_alternation_phase(self):
        rng = np.random.default_rng(1)
        donor = LowRankState(rank=2, seed=7)
        for step in (1, 2, 3):
            m = rng.normal(size=(6, 4))
            factor = donor.compress("w", m, step)
            donor.adopt("w", factor, step)

        joiner = LowRankState(rank=2, seed=7)
        joiner.warm_start_from(donor)
        assert np.array_equal(joiner._p["w"], donor._p["w"])
        assert np.array_equal(joiner._q["w"], donor._q["w"])
        assert not joiner._carried

    def test_acpsgd_warm_started_peer_is_in_phase(self):
        """With the per-worker residual out of the picture, a warm-started
        joiner produces the *identical* local factor for identical input —
        it orthogonalizes the same carried factor and compresses the same
        side of the factorization as the survivors."""
        rng = np.random.default_rng(1)
        donor = LowRankState(rank=2, seed=7, use_error_feedback=False)
        for step in (1, 2, 3):
            m = rng.normal(size=(6, 4))
            donor.adopt("w", donor.compress("w", m, step), step)

        joiner = LowRankState(rank=2, seed=7, use_error_feedback=False)
        joiner.warm_start_from(donor)
        m = rng.normal(size=(6, 4))
        assert np.array_equal(
            joiner.compress("w", m.copy(), 4), donor.compress("w", m.copy(), 4)
        )

    def test_aggregator_admit_rank_warm_starts_from_donor(self):
        group = ResilientProcessGroup(2)
        aggregator = make_aggregator("acpsgd", group, rank=2)
        grads = [{"w": np.random.default_rng(r).normal(size=(6, 4))}
                 for r in range(2)]
        aggregator.aggregate(grads)

        group.admit(group.allocate_rank(), rejoin=False)
        aggregator.admit_rank(2, donor_rank=0)
        aggregator.set_roster([0, 1, 2])
        donor_state = aggregator.state_for(0)
        joiner_state = aggregator.state_for(2)
        assert np.array_equal(joiner_state._p["w"], donor_state._p["w"])

        # The widened aggregate runs and stays finite.
        grads.append({"w": np.random.default_rng(9).normal(size=(6, 4))})
        out = aggregator.aggregate(grads)
        assert np.isfinite(out["w"]).all()

    def test_per_rank_state_follows_rank_ids_not_slots(self):
        """Ejecting rank 0 must not hand its EF residual to rank 1."""
        group = ResilientProcessGroup(3)
        aggregator = make_aggregator("topk", group, ratio=0.5)
        grads = [{"w": np.random.default_rng(r).normal(size=(8,))}
                 for r in range(3)]
        aggregator.aggregate(grads)
        rank1_state = aggregator.state_for(1)
        arena = aggregator._arena
        residuals = [arena.slab(slot).copy() for slot in range(3)]

        aggregator.set_roster([1, 2])  # rank 0 ejected
        assert aggregator.state_for(1) is rank1_state
        assert aggregator.state_for(0) is not rank1_state
        # Slots are roster positions: each residual moved with its rank.
        for slot, rank in enumerate([1, 2]):
            assert arena.slab(slot).tobytes() == residuals[rank].tobytes()


MIDDLE_CHURN_PLAN = FaultPlan(
    seed=3,
    permanent=(PermanentFailure(rank=1, call_index=4),),
    recoveries=(Recovery(rank=1, call_index=10),),
    joins=(Join(call_index=16),),
)


class TestResidualsFollowRanks:
    """Slots are roster positions, error-feedback residuals belong to ranks:
    at every membership boundary each surviving rank finds the residual it
    left in its new slot, and a rejoiner or joiner an empty one (``-0.0``).
    Tracked rank by rank against the slabs, on both worker backends."""

    @staticmethod
    def carried_bytes(arena, slot):
        views = arena.grads(slot)
        return b"".join(views[name].tobytes() for name in sorted(arena.carried))

    @pytest.mark.parametrize("method", ["topk", "acpsgd"])
    def test_each_rank_finds_its_residual_in_its_new_slot(self, method):
        weights = {}
        for workers in ("seq", "process"):
            train_data, test_data = make_data()
            model = make_mlp(6, 10, 3, rng=np.random.default_rng(5))
            group = ResilientProcessGroup(
                3, injector=FaultInjector(MIDDLE_CHURN_PLAN),
                policy=BackoffPolicy(max_retries=1),
            )
            kwargs = {"rank": 2} if method == "acpsgd" else {}
            trainer = DataParallelTrainer(
                model, SGD(model, lr=0.05, momentum=0.9),
                make_aggregator(method, group, **kwargs),
                train_data, test_data, batch_size_per_worker=8, seed=11,
                workers=workers,
            )
            arena = trainer._arena
            assert arena.carried
            empty = self.carried_bytes(arena, 0)
            dtype = arena.layout.dtype
            assert empty == np.full(len(empty) // dtype.itemsize, -0.0, dtype).tobytes()
            residual = {rank: empty for rank in range(3)}  # rank -> its bytes
            roster, moves, seen = [0, 1, 2], 0, 0
            live, finish = trainer._live_ranks, trainer.reducer.finish_step

            def checked_live_ranks():
                nonlocal roster, moves, seen
                ranks = live()
                changes = group.changes[seen:]
                seen = len(group.changes)
                fresh = {c.rank for c in changes if c.kind in ("rejoin", "join")}
                for slot, rank in enumerate(ranks):
                    want = empty if rank in fresh else residual[rank]
                    assert self.carried_bytes(arena, slot) == want, (rank, slot)
                    moves += rank in roster and roster.index(rank) != slot
                roster = ranks
                return ranks

            def recording_finish(aggregator=None):
                out = finish(aggregator)
                for slot, rank in enumerate(trainer.aggregator.roster):
                    residual[rank] = self.carried_bytes(arena, slot)
                return out

            trainer._live_ranks = checked_live_ranks
            trainer.reducer.finish_step = recording_finish
            with trainer:
                for _ in range(20):
                    trainer.train_step()
            assert kinds(group) == ["eject", "rejoin", "join"]
            assert roster == [0, 1, 2, 3] and moves == 2  # rank 2: 2 -> 1 -> 2
            weights[workers] = model.state_vector()
        assert weights["seq"].tobytes() == weights["process"].tobytes()

    def test_readmission_at_an_unchanged_roster_empties_the_slot(self):
        """Eject-then-readmit within one boundary: the roster looks the
        same, but the rank's residual is stale and starts over."""
        aggregator = make_aggregator("topk", ResilientProcessGroup(3), ratio=0.5)
        aggregator.aggregate(
            [{"w": np.random.default_rng(r).normal(size=8)} for r in range(3)]
        )
        arena = aggregator._arena
        kept = [arena.slab(slot).copy() for slot in range(3)]
        aggregator.admit_rank(1, donor_rank=0)
        aggregator.set_roster([0, 1, 2])
        assert arena.slab(1).tobytes() == np.full(8, -0.0).tobytes()
        for slot in (0, 2):
            assert arena.slab(slot).tobytes() == kept[slot].tobytes()
