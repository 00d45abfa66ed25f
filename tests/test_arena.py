"""Gradient arena: layout, zero-copy packing, in-place collectives."""

import numpy as np
import pytest

from repro.comm import collectives
from repro.comm.process_group import ProcessGroup
from repro.faults.resilient import ResilientProcessGroup
from repro.models.convnets import make_mlp
from repro.nn.parameter import Parameter
from repro.optim.aggregators import AllReduceAggregator, _unpack
from repro.perf.arena import ArenaLayout, GradientArena
from repro.perf.counters import ALLOC_STATS


def small_model(seed=0):
    return make_mlp(12, 8, 4, rng=np.random.default_rng(seed))


def random_grads(model, seed=0):
    rng = np.random.default_rng(seed)
    return {
        name: rng.standard_normal(param.shape)
        for name, param in model.named_parameters()
    }


class TestArenaLayout:
    def test_offsets_are_contiguous_in_order(self):
        layout = ArenaLayout([("a", (2, 3)), ("b", (4,)), ("c", ())], np.float64)
        assert layout.names == ["a", "b", "c"]
        assert layout.offsets == {"a": 0, "b": 6, "c": 10}
        assert layout.total_elements == 11

    def test_duplicate_name_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            ArenaLayout([("a", (2,)), ("a", (3,))], np.float64)

    def test_buckets_partition_slab(self):
        layout = ArenaLayout(
            [("a", (4,)), ("b", (4,)), ("c", (4,))], np.float64, bucket_bytes=32
        )
        assert layout.buckets == [(0, 4), (4, 8), (8, 12)]
        assert ArenaLayout([("a", (4,))], np.float64).buckets == [(0, 4)]


class TestGradientArena:
    def test_views_share_slab_storage(self):
        model = small_model()
        arena = GradientArena(model, world_size=2)
        grads = arena.grads(0)
        for name in arena.layout.names:
            assert np.shares_memory(grads[name], arena.slab(0))
        assert grads.slab is arena.slab(0)

    def test_backward_writes_land_in_slab(self):
        model = small_model()
        arena = GradientArena(model, world_size=1)
        arena.bind(model, 0)
        model.zero_grad()
        x = np.random.default_rng(1).standard_normal((5, 12))
        out = model(x)
        model.backward(np.ones_like(out))
        slab = arena.slab(0)
        assert np.abs(slab).sum() > 0
        for name, param in model.named_parameters():
            lo = arena.layout.offsets[name]
            hi = lo + arena.layout.size_of(name)
            np.testing.assert_array_equal(
                param.grad.ravel(), slab[lo:hi]
            )

    def test_bind_shape_mismatch_rejected(self):
        arena = GradientArena(small_model(), world_size=1)
        other = make_mlp(12, 9, 4, rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match="layout"):
            arena.bind(other, 0)

    def test_owns_identifies_slabs(self):
        arena = GradientArena(small_model(), world_size=2)
        assert arena.owns([arena.slab(0), arena.slab(1)])
        assert not arena.owns([arena.slab(0).copy()])


class TestParameterSlots:
    def test_slot_accumulation_matches_legacy(self):
        rng = np.random.default_rng(3)
        g1, g2 = rng.standard_normal((2, 4, 3))
        legacy = Parameter(np.zeros((4, 3)))
        legacy.accumulate_grad(g1)
        legacy.accumulate_grad(g2)

        slotted = Parameter(np.zeros((4, 3)))
        slot = np.full((4, 3), 99.0)  # stale garbage must be overwritten
        slotted.attach_grad_slot(slot)
        slotted.accumulate_grad(g1)
        slotted.accumulate_grad(g2)

        np.testing.assert_array_equal(legacy.grad, slotted.grad)
        assert slotted.grad is slot

    def test_zero_grad_marks_slot_stale_without_allocation(self):
        param = Parameter(np.zeros(3))
        slot = np.zeros(3)
        param.attach_grad_slot(slot)
        param.accumulate_grad(np.ones(3))
        assert param.grad is slot
        param.zero_grad()
        assert param.grad is None  # stale, not freed
        param.accumulate_grad(np.full(3, 2.0))
        np.testing.assert_array_equal(slot, np.full(3, 2.0))

    def test_attach_shape_mismatch_rejected(self):
        param = Parameter(np.zeros((2, 2)))
        with pytest.raises(ValueError, match="slot shape"):
            param.attach_grad_slot(np.zeros(5))

    def test_detach_returns_to_legacy_mode(self):
        param = Parameter(np.zeros(3))
        param.attach_grad_slot(np.zeros(3))
        param.detach_grad_slot()
        param.accumulate_grad(np.ones(3))
        assert param.grad is not None and param.grad.base is None

    def test_carried_slot_is_never_stale(self):
        """An error-feedback slot: ``zero_grad`` keeps the residual and every
        backward adds onto it — ``(E + g1) + g2``, then ``+ g3``."""
        rng = np.random.default_rng(4)
        residual, g1, g2, g3 = rng.standard_normal((4, 2, 3))
        param = Parameter(np.zeros((2, 3)))
        slot = residual.copy()
        param.attach_grad_slot(slot, carry=True)
        assert param.grad is slot
        param.accumulate_grad(g1)
        param.accumulate_grad(g2)
        param.zero_grad()
        assert param.grad is slot
        param.accumulate_grad(g3)
        assert slot.tobytes() == (((residual + g1) + g2) + g3).tobytes()
        param.attach_grad_slot(slot)  # re-bound without carry: stale again
        assert param.grad is None


class TestArenaDtype:
    def test_slabs_take_the_parameters_dtype(self):
        model = small_model()
        assert GradientArena(model, 1).slab(0).dtype == np.float32
        model.astype(np.float64)
        arena = GradientArena(model, 1)
        assert arena.slab(0).dtype == arena.layout.dtype == np.float64

    def test_templates_must_share_one_floating_dtype(self):
        with pytest.raises(ValueError, match="one floating dtype"):
            GradientArena(
                [("a", np.zeros(2, np.float32)), ("b", np.zeros(2))], 1
            )
        with pytest.raises(ValueError, match="one floating dtype"):
            GradientArena([("a", (2, 3))], 1)  # a shape is not a template


class TestResiduals:
    """An error-feedback method's views are carried: empty at ``-0.0``,
    added into, moved with their rank, cleared on demand."""

    @staticmethod
    def arena(world=3):
        arena = GradientArena([("w", np.zeros((2, 3))), ("b", np.zeros(2))], world)
        for slot in range(world):
            arena.slab(slot)[:] = slot + 1.0
        arena.carry(["w"])
        return arena

    def test_carry_starts_every_slab_at_negative_zero(self):
        arena = self.arena()
        for slot in range(3):
            views = arena.grads(slot)
            assert views["w"].tobytes() == np.full((2, 3), -0.0).tobytes()
            assert np.array_equal(views["b"], np.full(2, slot + 1.0))

    def test_bind_attaches_carried_slots(self):
        model = small_model()
        arena = GradientArena(model, 1)
        carried = [name for name in arena.layout.names if name.endswith("weight")]
        arena.carry(carried)
        arena.bind(model, 0)
        for name, param in model.named_parameters():
            assert (param.grad is not None) == (name in carried)

    def test_load_adds_into_carried_and_overwrites_the_rest(self):
        arena = self.arena(1)
        grads = {"w": np.arange(6.0).reshape(2, 3), "b": np.array([7.0, 8.0])}
        arena.load(0, grads)
        arena.load(0, grads)
        views = arena.grads(0)
        assert np.array_equal(views["w"], 2 * grads["w"])
        assert np.array_equal(views["b"], grads["b"])

    def test_reorder_moves_slabs_with_their_ranks(self):
        arena = self.arena()
        for slot in range(3):
            arena.grads(slot)["w"][:] = slot
        before = [arena.slab(slot) for slot in range(3)]
        # Rank order [0, 1, 2] -> rank 1 ejected, rank 2 to slot 1, a joiner
        # at slot 2 and another at slot 3 (the arena grows).
        arena.reorder([0, 2, None, None])
        assert arena.slab(0) is before[0] and arena.slab(1) is before[2]
        assert arena.slab(2) is before[1]  # the idle slab, reused
        for slot, want in ((0, 0.0), (1, 2.0)):
            assert np.array_equal(arena.grads(slot)["w"], np.full((2, 3), want))
        for slot in (2, 3):
            assert arena.grads(slot)["w"].tobytes() == np.full((2, 3), -0.0).tobytes()
        assert arena.world_size == 4

    def test_clear_residuals_leaves_the_rest(self):
        arena = self.arena()
        for slot in range(3):
            arena.grads(slot)["w"][:] = 5.0
        arena.clear_residuals([1])
        assert np.array_equal(arena.grads(0)["w"], np.full((2, 3), 5.0))
        assert arena.grads(1)["w"].tobytes() == np.full((2, 3), -0.0).tobytes()
        assert np.array_equal(arena.grads(1)["b"], np.full(2, 2.0))


class TestPackUnpack:
    def test_pack_arena_grads_is_zero_copy(self):
        model = small_model()
        arena = GradientArena(model, world_size=1)
        grads = arena.grads(0)
        ALLOC_STATS.reset()
        (adopted,) = AllReduceAggregator(ProcessGroup(1))._adopt([grads])
        assert adopted is grads and adopted.slab is arena.slab(0)
        assert ALLOC_STATS.pack_copies == 0

    def test_pack_plain_dict_copies_and_counts(self):
        model = small_model()
        grads = random_grads(model)
        names = list(grads)
        ALLOC_STATS.reset()
        (adopted,) = AllReduceAggregator(ProcessGroup(1))._adopt([grads])
        assert ALLOC_STATS.pack_copies == 1
        assert adopted.layout.names == names
        assert adopted.layout.buckets == [(0, adopted.slab.size)]
        np.testing.assert_array_equal(
            adopted.slab, np.concatenate([grads[n].ravel() for n in names])
        )
        for name in names:
            assert np.shares_memory(adopted[name], adopted.slab)
            assert not np.shares_memory(adopted[name], grads[name])

    def test_unpack_returns_read_only_views(self):
        """Satellite regression: callers cannot scribble on shared buffers."""
        model = small_model()
        grads = random_grads(model)
        names = list(grads)
        buffer = np.concatenate([grads[n].ravel() for n in names])
        out = _unpack(buffer, grads, names)
        first = names[0]
        assert np.shares_memory(out[first], buffer)
        with pytest.raises(ValueError):
            out[first][...] = 0.0


class TestInplaceAllReduce:
    @pytest.mark.parametrize("world_size", [2, 3, 4, 5])
    def test_matches_copying_all_reduce_bitwise(self, world_size):
        rng = np.random.default_rng(world_size)
        originals = [rng.standard_normal(23) for _ in range(world_size)]
        group = ProcessGroup(world_size)
        expected = group.all_reduce([b.copy() for b in originals], average=True)
        buffers = [b.copy() for b in originals]
        group.all_reduce_(buffers, average=True)
        for buf, ref in zip(buffers, expected):
            np.testing.assert_array_equal(buf, ref)

    def test_inplace_stats_recorded(self):
        group = ProcessGroup(4)
        group.all_reduce_([np.ones(8) for _ in range(4)])
        stats = group.history[-1]
        assert stats.algorithm == "allreduce_ring"
        assert stats.steps == 6

    def test_world_size_one_is_identity(self):
        buf = np.arange(5.0)
        collectives.all_reduce_inplace([buf])
        np.testing.assert_array_equal(buf, np.arange(5.0))

    def test_rejects_bad_buffers(self):
        good = [np.zeros(8), np.zeros(8)]
        with pytest.raises(ValueError, match="float64"):
            collectives.all_reduce_inplace(
                [np.zeros(8, dtype=np.float32), np.zeros(8)]
            )
        with pytest.raises(ValueError, match="length"):
            collectives.all_reduce_inplace([np.zeros(8), np.zeros(9)])
        read_only = np.zeros(8)
        read_only.flags.writeable = False
        with pytest.raises(ValueError, match="writable"):
            collectives.all_reduce_inplace([good[0], read_only])

    def test_resilient_group_forces_copying_path(self):
        """The in-place-or-copy decision is the group's: the resilient
        group reduces fault-checked copies and writes the result back."""
        group = ResilientProcessGroup(3)
        rng = np.random.default_rng(7)
        originals = [rng.standard_normal(11) for _ in range(3)]
        expected = group.all_reduce([b.copy() for b in originals], average=True)
        buffers = [b.copy() for b in originals]
        ALLOC_STATS.reset()
        group.all_reduce_(buffers, average=True)
        assert ALLOC_STATS.bucket_copies == 1
        for buf, ref in zip(buffers, expected):
            np.testing.assert_array_equal(buf, ref)


class TestAggregatorFastPath:
    def test_inplace_ssgd_matches_legacy_bitwise(self):
        model = small_model()
        world_size = 4
        arena = GradientArena(model, world_size)
        rng = np.random.default_rng(11)
        reference = [
            rng.standard_normal(arena.layout.total_elements).astype(arena.layout.dtype)
            for _ in range(world_size)
        ]
        legacy_grads = []
        for slot, ref in enumerate(reference):
            np.copyto(arena.slab(slot), ref)
            grads = {}
            for name in arena.layout.names:
                lo = arena.layout.offsets[name]
                hi = lo + arena.layout.size_of(name)
                grads[name] = ref[lo:hi].reshape(arena.layout.shapes[name]).copy()
            legacy_grads.append(grads)

        expected = AllReduceAggregator(ProcessGroup(world_size)).aggregate(
            legacy_grads
        )
        ALLOC_STATS.reset()
        result = AllReduceAggregator(ProcessGroup(world_size)).aggregate(
            [arena.grads(slot) for slot in range(world_size)]
        )
        assert ALLOC_STATS.fused_allocs == 0
        for name in expected:
            np.testing.assert_array_equal(result[name], expected[name])
            assert np.shares_memory(result[name], arena.slab(0))

    def test_duplicate_buffers_fall_back_to_copying(self):
        """Two workers handing in the SAME slab cannot be reduced in place."""
        model = small_model()
        arena = GradientArena(model, world_size=1)
        np.copyto(arena.slab(0), 1.0)
        grads = arena.grads(0)
        aggregator = AllReduceAggregator(ProcessGroup(2))
        ALLOC_STATS.reset()
        result = aggregator.aggregate([grads, grads])
        assert ALLOC_STATS.bucket_copies == 1
        for name in result:
            np.testing.assert_array_equal(
                result[name], np.ones(arena.layout.shapes[name])
            )
