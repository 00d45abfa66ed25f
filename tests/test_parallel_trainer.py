"""Bit-exactness of the arena and parallel-worker training paths.

The acceptance property of the whole perf subsystem: feeding the
aggregators zero-copy arena slabs instead of plain gradient dicts, or
turning on thread-parallel worker backprop, must not change a single bit
of the result — for every aggregation method.
"""

import numpy as np
import pytest

from repro.comm.process_group import ProcessGroup
from repro.models.convnets import make_small_vgg
from repro.nn.dropout import Dropout
from repro.nn.norm import BatchNorm2d
from repro.optim.aggregators import make_aggregator
from repro.optim.sgd import SGD
from repro.perf.arena import GradientArena
from repro.perf.replicas import ReplicaSet, iter_modules
from repro.train.datasets import make_cifar_like
from repro.train.trainer import DataParallelTrainer

METHODS = ["ssgd", "signsgd", "topk", "powersgd", "acpsgd"]
ALL_METHODS = METHODS + ["randomk", "qsgd", "terngrad", "dgc"]


def run_training(
    method,
    workers,
    steps=3,
    world_size=2,
    seed=7,
    accumulation_steps=1,
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
        accumulation_steps=accumulation_steps,
        workers=workers,
        buffer_bytes=buffer_bytes,
    )
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


class TestArenaBitExactness:
    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_arena_matches_legacy(self, method):
        """``aggregate(plain dicts) == aggregate(ArenaGrads)``, bit for bit.

        Three steps, so EF residuals / momentum / carried factors cross
        step boundaries; the plain inputs must come back untouched.
        """
        world = 2
        model = make_small_vgg(base_width=2, rng=np.random.default_rng(0))
        arena = GradientArena(model, world)
        on_dicts = make_aggregator(method, ProcessGroup(world))
        on_arena = make_aggregator(method, ProcessGroup(world))
        rng = np.random.default_rng(1)
        for _ in range(3):
            plain = []
            for slot in range(world):
                arena.slab(slot)[:] = rng.standard_normal(
                    arena.layout.total_elements
                )
                plain.append({
                    name: view.copy()
                    for name, view in arena.grads(slot).items()
                })
            untouched = [
                {name: grad.copy() for name, grad in grads.items()}
                for grads in plain
            ]
            want = on_dicts.aggregate(plain)
            got = on_arena.aggregate(
                [arena.grads(slot) for slot in range(world)]
            )
            assert list(got) == list(want)
            for name in want:
                np.testing.assert_array_equal(got[name], want[name])
            for grads, before in zip(plain, untouched):
                for name in before:
                    np.testing.assert_array_equal(grads[name], before[name])


class TestParallelBitExactness:
    @pytest.mark.parametrize("method", METHODS)
    def test_parallel_matches_sequential(self, method):
        assert_identical(
            run_training(method, workers="seq"),
            run_training(method, workers="thread"),
        )

    @pytest.mark.parametrize("method", ["ssgd", "acpsgd", "qsgd"])
    def test_parallel_matches_sequential_bucketed(self, method):
        assert_identical(
            run_training(method, workers="seq", world_size=3),
            run_training(
                method, workers="thread", world_size=3, buffer_bytes=512
            ),
        )

    def test_parallel_matches_legacy_world_four(self):
        """The full stack (arena + in-place + threads) vs sequential."""
        assert_identical(
            run_training("ssgd", workers="seq", world_size=4),
            run_training("ssgd", workers="thread", world_size=4),
        )


class TestReplicaSet:
    def test_replicas_share_weight_storage(self):
        model = make_small_vgg(base_width=2, rng=np.random.default_rng(0))
        replicas = ReplicaSet(model, count=3)
        master = dict(model.named_parameters())
        for replica in replicas.replicas[1:]:
            for name, param in replica.named_parameters():
                assert param.data is master[name].data

    def test_replicas_carry_no_hooks(self):
        """Copies are taken with the master's hooks detached: nothing of the
        trainer (reducer, arena, aggregator, group) hangs off a replica."""
        train_data, test_data = make_cifar_like(num_train=16, num_test=4, seed=0)
        model = make_small_vgg(base_width=2, rng=np.random.default_rng(0))
        trainer = DataParallelTrainer(
            model, SGD(model, lr=0.05),
            make_aggregator("ssgd", ProcessGroup(3)),
            train_data, test_data, batch_size_per_worker=2,
            workers="thread", buffer_bytes=512,
        )
        with trainer:
            for _, param in model.named_parameters():
                assert [hook.__self__ for hook in param._hooks] == [
                    trainer.reducer
                ]
            for replica in trainer._replicas.replicas[1:]:
                for _, param in replica.named_parameters():
                    assert param._hooks == []
            trainer.train_step()

    def test_begin_round_rebinds_after_optimizer_step(self):
        model = make_small_vgg(base_width=2, rng=np.random.default_rng(0))
        replicas = ReplicaSet(model, count=2)
        # SGD *reassigns* param.data, leaving clones pointing at stale arrays.
        for _, param in model.named_parameters():
            param.data = param.data * 0.5
        replicas.begin_round()
        master = dict(model.named_parameters())
        for name, param in replicas.replicas[1].named_parameters():
            assert param.data is master[name].data
        replicas.end_round(2)

    def test_dropout_rejected(self):
        class Dropped(type(make_small_vgg())):
            pass

        model = make_small_vgg(base_width=2)
        model.drop = Dropout(0.5)
        with pytest.raises(ValueError, match="Dropout"):
            ReplicaSet(model, count=2)

    def test_batchnorm_replay_matches_direct_updates(self):
        rng = np.random.default_rng(5)
        direct = BatchNorm2d(3)
        recorded = BatchNorm2d(3)
        batches = [rng.standard_normal((2, 3, 4, 4)) for _ in range(3)]
        for batch in batches:
            direct(batch)
        recorded.stat_recorder = []
        for batch in batches:
            recorded(batch)
        # Recording must leave the buffers untouched...
        np.testing.assert_array_equal(recorded.running_mean, np.zeros(3))
        replay_target = BatchNorm2d(3)
        for mean, var in recorded.stat_recorder:
            replay_target.apply_batch_stats(mean, var)
        # ...and replaying reproduces the direct update sequence bit-exactly.
        np.testing.assert_array_equal(
            replay_target.running_mean, direct.running_mean
        )
        np.testing.assert_array_equal(
            replay_target.running_var, direct.running_var
        )
