"""Decoded aggregates: every block the optimizer decodes has the old bits.

A compressing method's ``finish_buckets`` returns a
:class:`~repro.optim.decoded.DecodedAggregate` — the reduced payload —
and ``SGD.step`` decodes one block of rows at a time just before applying
it. Each decode is pinned here against the whole-vector kernel it
replaces: Sign-SGD's L1 scale against ``np.abs(x).mean()``, the Top-k and
Random-k block scatters against one scatter over the whole vector, and the
low-rank blocks against :func:`~repro.compression.lowrank_kernels
.blocked_matmul`. The last class checks the consumer: a step on the
decoded aggregate equals a step on the dense tensors it stands for.
"""

import numpy as np
import pytest

from repro.comm.process_group import ProcessGroup
from repro.compression.lowrank_kernels import blocked_matmul, product_blocks
from repro.compression.randomk import RandomKCompressor
from repro.compression.topk import SparsePayload, sparse_aggregate
from repro.models.convnets import make_mlp
from repro.optim import aggregators
from repro.optim.aggregators import make_aggregator
from repro.optim.decoded import DecodedAggregate
from repro.optim.sgd import SGD
from repro.perf.arena import GradientArena


def heavy_tailed(rng, size):
    """Gradient-like magnitudes: a normal times a log-normal scale."""
    return rng.standard_normal(size) * np.exp(2 * rng.standard_normal(size))


def refill(arena, rng):
    """Fresh values in every slab; the arena's gradients, in slot order."""
    for slot in range(arena.world_size):
        np.copyto(arena.slab(slot), heavy_tailed(rng, arena.layout.total_elements))
    return [arena.grads(slot) for slot in range(arena.world_size)]


def fused(aggregated, names):
    """The aggregate as one flat vector, through item access."""
    return np.concatenate([aggregated[name].reshape(-1) for name in names])


class TestSignScale:
    @pytest.mark.parametrize("size", [
        1, 7, 8, 9, 65_536, 65_537, 131_071, 131_072, 300_007, 1_000_003,
        2_896_906,
    ])
    def test_pairwise_tree_is_numpys_mean(self, size):
        """The scale is summed without a full-size ``|v|``, to the bit."""
        flat = heavy_tailed(np.random.default_rng(size), size)
        flat[::7] *= -1.0
        got = aggregators._abs_sum(flat) / size
        assert np.float64(got).tobytes() == np.abs(flat).mean().tobytes()


class TestSparseBlocks:
    @pytest.mark.parametrize("bucket_bytes", [None, 4096])
    @pytest.mark.parametrize("use_ef", [True, False])
    def test_topk_blocks_are_one_sparse_aggregate(self, bucket_bytes, use_ef):
        world = 3
        model = make_mlp(300, 128, 10, depth=2, rng=np.random.default_rng(0))
        arena = GradientArena(model, world, bucket_bytes=bucket_bytes)
        aggregator = make_aggregator(
            "topk", ProcessGroup(world), ratio=0.02, use_error_feedback=use_ef
        )
        aggregator.attach(arena)
        rng = np.random.default_rng(1)
        total = arena.layout.total_elements
        for _ in range(3):
            aggregated = aggregator.aggregate(refill(arena, rng))
            payloads = [
                SparsePayload(idx, values, total)
                for idx, values in aggregated.selections
            ]
            want = sparse_aggregate(payloads, (total,))
            got = fused(aggregated, arena.layout.names)
            assert got.tobytes() == want.tobytes()
        arena.close()

    def test_randomk_blocks_are_one_scatter(self):
        world = 2
        model = make_mlp(300, 128, 10, depth=2, rng=np.random.default_rng(0))
        arena = GradientArena(model, world)
        aggregator = make_aggregator("randomk", ProcessGroup(world), ratio=0.05)
        aggregator.attach(arena)
        rng = np.random.default_rng(2)
        total = arena.layout.total_elements
        for step in range(1, 4):
            aggregated = aggregator.aggregate(refill(arena, rng))
            shared = RandomKCompressor(ratio=0.05).indices_for_step(
                "fused", total, step
            )
            assert np.array_equal(aggregated.indices, np.sort(shared))
            want = np.zeros(total, arena.layout.dtype)
            want[aggregated.indices] = aggregated.values
            assert fused(aggregated, arena.layout.names).tobytes() == want.tobytes()
        arena.close()


# (n, m) around the product's block height and widths that are not a
# multiple of 8, a width past 16 384 (two-row blocks) and a conv kernel.
LOW_RANK_SHAPES = [
    (300, 5), (64, 255), (43, 768), (85, 768), (33, 1023), (9, 4097),
    (7, 20_000), (16, 3, 5, 5),
]


class TestLowRankBlocks:
    @pytest.mark.parametrize("method", ["acpsgd", "powersgd"])
    def test_blocks_are_blocked_matmuls(self, method):
        world = 2
        shapes = [(f"w{i}", shape) for i, shape in enumerate(LOW_RANK_SHAPES)]
        arena = GradientArena(
            [(name, np.zeros(shape)) for name, shape in shapes + [("bias", (7,))]],
            world,
        )
        aggregator = make_aggregator(method, ProcessGroup(world), rank=4)
        aggregator.attach(arena)
        rng = np.random.default_rng(3)
        for _ in range(2):  # both ACP-SGD parities
            aggregated = aggregator.aggregate(refill(arena, rng))
            for name, shape in shapes:
                p, q = aggregated.factors[name]
                n, m = shape[0], int(np.prod(shape[1:]))
                assert aggregated.blocks(name) == list(product_blocks(n, m))
                want = blocked_matmul(p, q.T).reshape(shape)
                assert aggregated[name].tobytes() == want.tobytes(), name
            # The uncompressed tensor is read from the reduced plain pack.
            assert np.array_equal(
                aggregated["bias"], aggregated.plain[:7]
            )
        arena.close()


class TestStepOnTheDecodedAggregate:
    @pytest.mark.parametrize("weight_decay", [0.0, 5e-4])
    @pytest.mark.parametrize(
        "method", ["topk", "randomk", "signsgd", "powersgd", "acpsgd"]
    )
    def test_step_equals_step_on_the_dense_tensors(self, method, weight_decay):
        world = 3
        models = [
            make_mlp(300, 128, 10, depth=2, rng=np.random.default_rng(0))
            for _ in range(2)
        ]
        decoded, dense = (
            SGD(model, lr=0.05, momentum=0.9, weight_decay=weight_decay)
            for model in models
        )
        arena = GradientArena(models[0], world, bucket_bytes=1 << 14)
        kwargs = {"rank": 4} if method in ("acpsgd", "powersgd") else {}
        aggregator = make_aggregator(method, ProcessGroup(world), **kwargs)
        aggregator.attach(arena)
        rng = np.random.default_rng(4)
        for _ in range(3):
            aggregated = aggregator.aggregate(refill(arena, rng))
            assert isinstance(aggregated, DecodedAggregate)
            dense.step({name: aggregated[name] for name in aggregated})
            decoded.step(aggregated)
        for (name, a), (_, b) in zip(
            models[0].named_parameters(), models[1].named_parameters()
        ):
            assert a.data.tobytes() == b.data.tobytes(), name
            assert (
                decoded._velocity[name].tobytes()
                == dense._velocity[name].tobytes()
            ), name
        arena.close()
