"""Bit-exactness of the arena path and of what worker copies rely on.

The acceptance property of the whole perf subsystem: feeding the
aggregators zero-copy arena slabs instead of plain gradient dicts must
not change a single bit of the result — for every aggregation method.
Process workers (``tests/test_procpool.py``) rest on two pieces checked
here in isolation: the hook-free model copy and the BatchNorm replay.
"""

import numpy as np
import pytest

from repro.comm.process_group import ProcessGroup
from repro.models.convnets import make_small_vgg
from repro.nn.norm import BatchNorm2d
from repro.optim.aggregators import make_aggregator
from repro.optim.sgd import SGD
from repro.perf.arena import GradientArena
from repro.perf.replicas import detached_copy
from repro.train.datasets import make_cifar_like
from repro.train.trainer import DataParallelTrainer

METHODS = ["ssgd", "signsgd", "topk", "powersgd", "acpsgd"]
ALL_METHODS = METHODS + ["randomk", "qsgd", "terngrad", "dgc"]


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
        on_arena.attach(arena)
        rng = np.random.default_rng(1)
        for _ in range(3):
            plain = []
            for slot in range(world):
                fresh = rng.standard_normal(arena.layout.total_elements).astype(
                    arena.layout.dtype
                )
                plain.append({
                    name: view.copy()
                    for name, view in arena.layout.carve(fresh).items()
                })
                arena.load(slot, plain[slot])  # as backward writes the slab
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


class TestWorkerModelCopy:
    def test_detached_copy_carries_no_hooks(self):
        """The copy is taken with the master's hooks and grad slots
        detached: nothing of the trainer (reducer, arena, aggregator,
        group) hangs off it, and the original keeps all of it."""
        train_data, test_data = make_cifar_like(num_train=16, num_test=4, seed=0)
        model = make_small_vgg(base_width=2, rng=np.random.default_rng(0))
        trainer = DataParallelTrainer(
            model, SGD(model, lr=0.05),
            make_aggregator("ssgd", ProcessGroup(3)),
            train_data, test_data, batch_size_per_worker=2,
            buffer_bytes=512,
        )
        with trainer:
            trainer.train_step()  # binds the arena's grad slots
            copied = detached_copy(model)
            for _, param in model.named_parameters():
                assert [hook.__self__ for hook in param._hooks] == [
                    trainer.reducer
                ]
                assert param._grad_slot is not None
            for _, param in copied.named_parameters():
                assert param._hooks == []
                assert param._grad_slot is None and param.grad is None

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
