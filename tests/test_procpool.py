"""Process-worker pool: bit-identity, lifecycle, failure modes.

The acceptance property: running worker backprop in child processes
over shared-memory arena slabs must not change a single bit of the
training trajectory relative to the sequential path — for every
bucket-capable aggregation method, with gradient accumulation, at larger
world sizes, under both start methods, and through elastic churn. On
top of that, the pool owns real OS
resources (children, ``/dev/shm`` segments), so lifecycle — explicit
close, idempotency, crash containment, leak detection — is tested as
behavior, not left to the GC.
"""

import copy
import multiprocessing

import numpy as np
import pytest

from repro.comm.process_group import ProcessGroup
from repro.models.convnets import make_small_vgg
from repro.nn.dropout import Dropout
from repro.nn.norm import BatchNorm2d
from repro.optim.aggregators import make_aggregator
from repro.optim.sgd import SGD
from repro.perf import shm
from repro.perf.arena import GradientArena
from repro.perf.counters import ALLOC_STATS, AllocStats
from repro.perf.procpool import ProcessWorkerPool, WorkerStepTask
from repro.perf.replicas import iter_modules
from repro.train.datasets import make_cifar_like
from repro.train.trainer import DataParallelTrainer
from repro.utils.seeding import rank_rng

pytestmark = pytest.mark.perf

METHODS = ["ssgd", "signsgd", "topk", "powersgd", "acpsgd"]


def run_training(
    method,
    workers,
    steps=3,
    world_size=2,
    seed=7,
    buffer_bytes=None,
):
    """Train a few steps; return (losses, weights, batchnorm buffers)."""
    train_data, test_data = make_cifar_like(
        num_train=64, num_test=8, seed=seed
    )
    model = make_small_vgg(base_width=2, rng=np.random.default_rng(seed))
    trainer = DataParallelTrainer(
        model,
        SGD(model, lr=0.05, momentum=0.9),
        make_aggregator(method, ProcessGroup(world_size)),
        train_data,
        test_data,
        batch_size_per_worker=4,
        seed=seed,
        workers=workers,
        buffer_bytes=buffer_bytes,
    )
    with trainer:
        losses = [trainer.train_step() for _ in range(steps)]
    weights = np.concatenate(
        [param.data.ravel() for _, param in model.named_parameters()]
    )
    buffers = np.concatenate(
        [
            np.concatenate([m.running_mean, m.running_var])
            for m in iter_modules(model)
            if isinstance(m, BatchNorm2d)
        ]
    )
    return losses, weights, buffers


def assert_identical(result_a, result_b):
    losses_a, weights_a, buffers_a = result_a
    losses_b, weights_b, buffers_b = result_b
    assert losses_a == losses_b
    np.testing.assert_array_equal(weights_a, weights_b)
    np.testing.assert_array_equal(buffers_a, buffers_b)


class TestProcessBitExactness:
    @pytest.mark.parametrize("method", METHODS)
    def test_process_matches_sequential(self, method):
        assert_identical(
            run_training(method, workers="seq"),
            run_training(method, workers="process"),
        )

    def test_process_matches_sequential_world_four(self):
        assert_identical(
            run_training("ssgd", workers="seq", world_size=4, steps=2),
            run_training("ssgd", workers="process", world_size=4, steps=2),
        )

    def test_spawn_start_method_matches_fork(self, monkeypatch):
        """Both start methods are supported and bit-identical: on a
        platform without fork the pool spawns."""
        seq = run_training("ssgd", workers="seq", steps=2)
        monkeypatch.setattr(
            multiprocessing, "get_all_start_methods", lambda: ["spawn"]
        )
        assert_identical(seq, run_training("ssgd", workers="process", steps=2))

    def test_process_matches_sequential_bucketed(self):
        """Process workers + the WFBP reducer (deferred mode) compose."""
        assert_identical(
            run_training("ssgd", workers="seq", steps=2),
            run_training(
                "ssgd", workers="process", steps=2, buffer_bytes=4096
            ),
        )


class TestProcessChurn:
    def test_churn_replay_matches_sequential(self):
        """Eject -> rejoin -> scale-up with process workers, bit-identical.

        Exercises the full elastic composition: ``ensure_slots`` growing
        shared slabs mid-run, a joiner child spawned at the admission
        boundary, an ejected child idling (freezing its rng stream), and
        the rejoin resuming it.
        """
        from repro.faults import (
            FaultInjector,
            FaultPlan,
            Join,
            PermanentFailure,
            Recovery,
            ResilientProcessGroup,
        )
        from repro.train.resilience import ResilienceConfig

        def run(workers):
            plan = FaultPlan(
                seed=7,
                permanent=(PermanentFailure(rank=2, call_index=2),),
                recoveries=(Recovery(rank=2, call_index=5),),
                joins=(Join(call_index=8),),
            )
            train_data, test_data = make_cifar_like(
                num_train=64, num_test=8, seed=3
            )
            model = make_small_vgg(base_width=2, rng=np.random.default_rng(5))
            group = ResilientProcessGroup(3, injector=FaultInjector(plan))
            trainer = DataParallelTrainer(
                model,
                SGD(model, lr=0.05, momentum=0.9),
                make_aggregator("acpsgd", group, rank=2),
                train_data,
                test_data,
                batch_size_per_worker=4,
                seed=13,
                resilience=ResilienceConfig(),
                workers=workers,
            )
            with trainer:
                losses = [trainer.train_step() for _ in range(6)]
            changes = [change.kind for change in group.changes]
            assert changes == ["eject", "rejoin", "join"], changes
            weights = np.concatenate(
                [p.data.ravel() for _, p in model.named_parameters()]
            )
            return losses, weights

        losses_seq, weights_seq = run("seq")
        losses_proc, weights_proc = run("process")
        assert losses_seq == losses_proc
        np.testing.assert_array_equal(weights_seq, weights_proc)


class TestSharedArena:
    def test_shared_slabs_have_segment_names(self):
        model = make_small_vgg(base_width=2, rng=np.random.default_rng(0))
        arena = GradientArena(model, 2, backing="shared")
        try:
            assert arena.is_shared
            names = {arena.segment_name(slot) for slot in range(2)}
            assert len(names) == 2  # one segment per slab
            assert names <= shm.live_segment_names()
        finally:
            arena.close()
        assert not (names & shm.live_segment_names())

    def test_private_arena_has_no_segment_names(self):
        model = make_small_vgg(base_width=2, rng=np.random.default_rng(0))
        arena = GradientArena(model, 1)
        assert not arena.is_shared
        with pytest.raises(ValueError, match="shared"):
            arena.segment_name(0)
        arena.close()  # no-op for private backing

    def test_ensure_slots_grows_shared_segments(self):
        model = make_small_vgg(base_width=2, rng=np.random.default_rng(0))
        arena = GradientArena(model, 1, backing="shared")
        try:
            first = arena.segment_name(0)
            arena.ensure_slots(3)
            assert arena.world_size == 3
            grown = {arena.segment_name(slot) for slot in range(3)}
            assert first in grown and len(grown) == 3
            # Existing mappings survive growth: slab 0 is untouched.
            arena.slab(0)[:] = 1.5
            assert float(arena.slab(0)[0]) == 1.5
        finally:
            arena.close()

    def test_close_is_idempotent(self):
        model = make_small_vgg(base_width=2, rng=np.random.default_rng(0))
        arena = GradientArena(model, 1, backing="shared")
        arena.close()
        arena.close()
        assert not shm.live_segment_names()


class TestPoolLifecycle:
    def _make_pool(self, world=1):
        train_data, _ = make_cifar_like(num_train=16, num_test=4, seed=0)
        model = make_small_vgg(base_width=2, rng=np.random.default_rng(0))
        arena = GradientArena(model, world, backing="shared")
        pool = ProcessWorkerPool(model, arena, train_data, batch_size=2)
        return model, arena, pool

    def test_pool_requires_shared_arena(self):
        train_data, _ = make_cifar_like(num_train=16, num_test=4, seed=0)
        model = make_small_vgg(base_width=2, rng=np.random.default_rng(0))
        arena = GradientArena(model, 1)
        with pytest.raises(ValueError, match="shared"):
            ProcessWorkerPool(model, arena, train_data, batch_size=2)

    def test_worker_error_propagates_with_traceback(self):
        model, arena, pool = self._make_pool()
        try:
            pool.ensure_ranks([0])
            pool.broadcast_weights(model)
            bogus = WorkerStepTask(
                rank=0, slot=0, shard_index=0, shard_world=0,
                rng=rank_rng(0, 0),
            )
            with pytest.raises(RuntimeError, match="rank 0 failed"):
                pool.run_step([bogus])
            # The child survives a failed task and serves the next one.
            good = WorkerStepTask(
                rank=0, slot=0, shard_index=0, shard_world=1,
                rng=rank_rng(0, 0),
            )
            (result,) = pool.run_step([good])
            assert np.isfinite(result.loss)
        finally:
            pool.close()
            arena.close()

    def test_respawned_child_needs_no_replay(self):
        """The stream a task carries is the only one a child draws from:
        a fresh child handed the same generator state computes the same
        loss and writes the same slab bytes as its discarded predecessor."""
        model, arena, pool = self._make_pool()
        state = rank_rng(0, 0)
        state.random(3)  # not the stream's start: a child must not re-derive it

        def run_once():
            task = WorkerStepTask(
                rank=0, slot=0, shard_index=0, shard_world=1,
                rng=copy.deepcopy(state),
            )
            arena.slab(0)[:] = 0.0
            (result,) = pool.run_step([task])
            return result, arena.slab(0).tobytes()

        try:
            pool.ensure_ranks([0])
            pool.broadcast_weights(model)
            first, first_slab = run_once()
            pool.discard(0)
            pool.ensure_ranks([0])
            second, second_slab = run_once()
            assert second.loss == first.loss
            assert second_slab == first_slab
            # The result hands back the stream advanced past the draw.
            assert (second.rng.bit_generator.state
                    == first.rng.bit_generator.state
                    != state.bit_generator.state)
        finally:
            pool.close()
            arena.close()

    def test_close_is_idempotent_and_blocks_reuse(self):
        model, arena, pool = self._make_pool()
        pool.ensure_ranks([0])
        pool.close()
        pool.close()
        with pytest.raises(RuntimeError, match="closed"):
            pool.run_step([])
        arena.close()

    @staticmethod
    def _make_trainer(model, **kwargs):
        train_data, test_data = make_cifar_like(
            num_train=16, num_test=4, seed=0
        )
        return DataParallelTrainer(
            model,
            SGD(model, lr=0.05),
            make_aggregator("ssgd", ProcessGroup(2)),
            train_data,
            test_data,
            batch_size_per_worker=2,
            **kwargs,
        )

    def test_trainer_close_is_idempotent(self):
        model = make_small_vgg(base_width=2, rng=np.random.default_rng(0))
        trainer = self._make_trainer(model, workers="process")
        trainer.train_step()
        trainer.close()
        trainer.close()
        assert not shm.live_segment_names()

    @pytest.mark.parametrize(
        "dropout, start_method, message",
        [
            (0.5, None, "deterministic forward pass"),
            (0.0, "bogus", "cannot find context for 'bogus'"),
        ],
        ids=["dropout", "start-method"],
    )
    def test_failed_construction_releases_everything(
        self, dropout, start_method, message, monkeypatch
    ):
        """A rejected process trainer owns no segment and leaves no hook —
        whether the model is refused or the platform's start method is."""
        model = make_small_vgg(base_width=2, rng=np.random.default_rng(0))
        model.drop = Dropout(dropout)
        if start_method is not None:
            get_context = multiprocessing.get_context
            monkeypatch.setattr(
                multiprocessing, "get_context",
                lambda method=None: get_context(start_method),
            )
        before = shm.live_segment_names()
        with pytest.raises(ValueError, match=message):
            self._make_trainer(model, workers="process")
        assert shm.live_segment_names() == before
        for _, param in model.named_parameters():
            assert param._hooks == [] and param._grad_slot is None

    @pytest.mark.parametrize("workers", ["seq", "process"])
    def test_train_step_after_close_raises(self, workers):
        model = make_small_vgg(base_width=2, rng=np.random.default_rng(0))
        trainer = self._make_trainer(model, workers=workers)
        trainer.train_step()
        trainer.close()
        trainer.close()
        with pytest.raises(RuntimeError, match="closed trainer"):
            trainer.train_step()
        assert trainer.reducer.eager_steps + trainer.reducer.deferred_steps == 1
        assert 0.0 <= trainer.evaluate() <= 1.0


class TestAllocStats:
    def test_merge_folds_counter_snapshots(self):
        stats = AllocStats()
        stats.pack_copies = 1
        stats.merge(
            {
                "pack_copies": 2,
                "bucket_copies": 5,
                "fused_allocs": 99,  # derived key: ignored
            }
        )
        assert stats.pack_copies == 3
        assert stats.bucket_copies == 5
        assert stats.fused_allocs == 3

    def test_process_steps_stay_zero_alloc(self):
        """Child counters merge back and the arena path stays copy-free."""
        train_data, test_data = make_cifar_like(
            num_train=16, num_test=4, seed=0
        )
        model = make_small_vgg(base_width=2, rng=np.random.default_rng(0))
        trainer = DataParallelTrainer(
            model,
            SGD(model, lr=0.05),
            make_aggregator("ssgd", ProcessGroup(2)),
            train_data,
            test_data,
            batch_size_per_worker=2,
            workers="process",
        )
        with trainer:
            trainer.train_step()
            ALLOC_STATS.reset()
            trainer.train_step()
            assert ALLOC_STATS.fused_allocs == 0


class TestLeakRegistry:
    def test_registry_tracks_create_and_release(self):
        before = shm.live_segment_names()
        segment = shm.create_segment(64)
        assert segment.name in shm.live_segment_names() - before
        shm.release_segment(segment, unlink=True)
        assert segment.name not in shm.live_segment_names()

    def test_force_release_all_cleans_strays(self):
        shm.create_segment(64)
        shm.create_segment(64)
        assert shm.force_release_all() >= 2
        assert not shm.live_segment_names()
