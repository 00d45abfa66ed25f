"""Property tests for the Top-k hot path and the in-place SGD step.

``exact_topk_mask`` — one ``argpartition`` over a fresh ``|x|`` — is the
oracle. The sampled-bound kernel (:func:`repro.compression.topk.topk_select`)
must select the oracle's set on every input, through its fast path and
through its fall-back; the aggregator built on it must conserve error
feedback bitwise and allocate O(k * world) per step; and the in-place
``SGD.step`` must reproduce the textbook out-of-place update bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.comm.process_group import ProcessGroup
from repro.compression import topk
from repro.compression.topk import (
    TopkCompressor,
    exact_topk_mask,
    sparse_aggregate,
    sparse_wire,
    topk_select,
)
from repro.models.convnets import make_mlp
from repro.optim.aggregators import TopkSGDAggregator, make_aggregator
from repro.optim.sgd import SGD
from repro.perf.arena import GradientArena
from tests.test_perf_smoke import peak_allocation

# Both sides of the kernel's size cut-off, block-ragged and block-exact.
SIZES = [1, 7, 1000, topk._KERNEL_MIN_SIZE - 1, topk._KERNEL_MIN_SIZE,
         3 * topk.SELECT_BLOCK, 200_003]
RATIOS = [0.001, 0.01, 0.1, 0.125, 0.3, 0.5]


def heavy_tailed(rng, size):
    """Gradient-like magnitudes: a normal times a log-normal scale."""
    return rng.standard_normal(size) * np.exp(rng.standard_normal(size))


def assert_selects_like_oracle(flat, k, idx):
    """``idx`` is a valid exact top-k selection of ``flat``.

    Unique, ``k`` of them, and the selected magnitude multiset equals the
    oracle's (NaN compared as equal) — which is set equality whenever the
    k-th magnitude is not tied, checked on top of it in that case.
    """
    oracle = exact_topk_mask(flat, k)
    assert idx.dtype == np.int64
    assert idx.size == oracle.size == np.unique(idx).size
    magnitudes = np.abs(flat)
    np.testing.assert_array_equal(
        np.sort(magnitudes[idx]), np.sort(magnitudes[oracle])
    )
    if idx.size and idx.size < flat.size:
        kth = np.sort(magnitudes[idx])[0]
        if np.count_nonzero(magnitudes == kth) == 1:
            assert set(idx.tolist()) == set(oracle.tolist())


def fast_path_taken(flat, k):
    return (
        flat.size >= topk._KERNEL_MIN_SIZE
        and 8 * k <= flat.size
        and topk._select_above_sampled_bound(flat, k, np.empty(topk.SELECT_BLOCK))
        is not None
    )


class TestKernelMatchesOracle:
    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("ratio", RATIOS)
    def test_random_vectors(self, size, ratio):
        rng = np.random.default_rng(size)
        flat = heavy_tailed(rng, size)
        k = max(1, int(round(ratio * size)))
        before = flat.copy()
        idx = topk_select(flat, k, np.empty(size))
        assert_selects_like_oracle(flat, k, idx)
        np.testing.assert_array_equal(flat, before)  # input only read
        # Without caller scratch the same selection.
        assert set(topk_select(flat, k).tolist()) == set(idx.tolist())

    def test_fast_path_is_exercised(self, monkeypatch):
        """The candidate kernel, not the fall-back, serves gradient-like data."""
        partitioned = []
        largest = topk._largest
        monkeypatch.setattr(
            topk, "_largest",
            lambda mags, k: partitioned.append(mags.size) or largest(mags, k),
        )
        rng = np.random.default_rng(0)
        for size in (topk._KERNEL_MIN_SIZE, 200_003, 1_000_000):
            for ratio in (0.001, 0.01, 0.1):
                flat = heavy_tailed(rng, size)
                k = int(round(ratio * size))
                topk_select(flat, k)
                # One argpartition, over the candidates only.
                assert len(partitioned) == 1 and k <= partitioned.pop() <= 4 * k

    @settings(max_examples=25, deadline=None)
    @given(
        size=st.integers(topk._KERNEL_MIN_SIZE, 3 * topk._KERNEL_MIN_SIZE),
        ratio=st.sampled_from(RATIOS),
        seed=st.integers(0, 10_000),
        shape=st.sampled_from(["normal", "heavy", "uniform", "layered"]),
    )
    def test_property_set_equality(self, size, ratio, seed, shape):
        rng = np.random.default_rng(seed)
        if shape == "normal":
            flat = rng.standard_normal(size)
        elif shape == "heavy":
            flat = heavy_tailed(rng, size)
        elif shape == "uniform":
            flat = rng.uniform(-1.0, 1.0, size)
        else:  # blocks of very different scale, like fused layers
            flat = rng.standard_normal(size) * np.repeat(
                10.0 ** rng.integers(-6, 3, size // 1000 + 1), 1000
            )[:size]
        k = max(1, int(round(ratio * size)))
        assert_selects_like_oracle(flat, k, topk_select(flat, k))

    @pytest.mark.parametrize("size", [1000, 150_000])
    def test_all_equal_falls_back(self, size):
        flat = np.full(size, -2.5)
        k = size // 100
        assert not fast_path_taken(flat, k)
        assert_selects_like_oracle(flat, k, topk_select(flat, k))

    @pytest.mark.parametrize("levels", [2, 5, 40])
    def test_heavy_ties(self, levels):
        rng = np.random.default_rng(levels)
        size = 150_000
        flat = rng.integers(-levels, levels + 1, size).astype(np.float64)
        for k in (150, 1500, 15_000):
            assert_selects_like_oracle(flat, k, topk_select(flat, k))

    def test_fewer_than_k_nonzeros(self):
        rng = np.random.default_rng(3)
        size, k = 150_000, 1500
        flat = np.zeros(size)
        nonzero = rng.choice(size, 200, replace=False)
        flat[nonzero] = rng.standard_normal(200)
        assert not fast_path_taken(flat, k)
        idx = topk_select(flat, k)
        assert_selects_like_oracle(flat, k, idx)
        assert set(nonzero.tolist()) <= set(idx.tolist())

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("count", [1, 30, 5000])
    def test_non_finite_inputs_selected_like_the_oracle(self, bad, count):
        rng = np.random.default_rng(count)
        size, k = 150_000, 1500
        flat = heavy_tailed(rng, size)
        where = rng.choice(size, count, replace=False)
        flat[where] = bad
        idx = topk_select(flat, k)
        assert_selects_like_oracle(flat, k, idx)
        # Non-finite magnitudes sort last: they fill the selection first.
        assert np.count_nonzero(~np.isfinite(flat[idx])) == min(count, k)

    def test_mixed_nan_and_inf(self):
        rng = np.random.default_rng(9)
        size, k = 150_000, 1500
        flat = heavy_tailed(rng, size)
        flat[rng.choice(size, 12, replace=False)] = np.nan
        flat[5] = np.inf
        flat[6] = -np.inf
        idx = topk_select(flat, k)
        assert_selects_like_oracle(flat, k, idx)
        assert {5, 6} <= set(idx.tolist())
        assert np.count_nonzero(np.isnan(flat[idx])) == np.count_nonzero(
            np.isnan(flat)
        )

    def test_k_bounds_and_validation(self):
        flat = np.arange(10.0)
        assert topk_select(flat, 0).size == 0
        assert set(topk_select(flat, 10).tolist()) == set(range(10))
        assert set(topk_select(flat, 99).tolist()) == set(range(10))
        with pytest.raises(ValueError, match="k"):
            topk_select(flat, -1)

    def test_sampled_selection_shares_the_scratch(self):
        """Same rng stream, same set, with and without caller scratch."""
        rng = np.random.default_rng(4)
        flat = heavy_tailed(rng, 100_000)
        scratch = np.empty(flat.size)
        with_scratch = TopkCompressor(
            0.01, "sampled", rng=np.random.default_rng(1)
        ).select(flat, scratch)
        without = TopkCompressor(
            0.01, "sampled", rng=np.random.default_rng(1)
        ).select(flat)
        assert set(with_scratch.tolist()) == set(without.tolist())
        np.testing.assert_array_equal(scratch, np.abs(flat))
        # Everything sent dominates everything kept back.
        kept = np.delete(np.abs(flat), with_scratch)
        assert np.abs(flat[with_scratch]).min() >= kept.max()


def misleading(kind, dtype, size=1 << 21):
    """A vector whose strided sample misjudges its k-th magnitude (k = 0.1%).

    ``"short"``: the sampled positions run 15% larger and 1% of the entries
    are exact zeros (the last step's sent coordinates), so the first bound
    leaves fewer than k candidates, like a real Top-k slab now and then.
    ``"tail"``: the sampled positions hold the whole tail. ``"ties"``: five
    times k entries tie at the k-th magnitude, more than the 4k any bound
    may leave.
    """
    rng = np.random.default_rng(size)
    k = size // 1000
    stride = (size // topk._SAMPLE) | 1
    if kind == "ties":
        flat = rng.uniform(-0.5, 0.5, size)
        flat[rng.choice(size, 5 * k, replace=False)] = 1.0
        flat[:10] = -3.0
    else:
        flat = rng.standard_normal(size)
        flat[rng.choice(size, size // 100, replace=False)] = 0.0
        flat[::stride] *= {"short": 1.15, "tail": 100.0}[kind]
    return flat.astype(dtype), k


@pytest.mark.perf
class TestSelectionMemoryWhenTheSampleMisleads:
    """A wrong sampled bound is replaced by a pool pruned back to k.

    The selection is still the oracle's and its traced peak is a few
    :data:`SELECT_BLOCK` blocks of scratch, where the oracle's ``|x|`` plus
    ``argpartition`` indices take 96 (float32) and 64 (float64) on 2**21
    elements.
    """

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kind", ["short", "tail", "ties"])
    def test_exact_in_a_few_blocks(self, kind, dtype):
        flat, k = misleading(kind, dtype)
        scratch = np.empty(topk.SELECT_BLOCK, dtype)
        assert topk._select_above_sampled_bound(flat, k, scratch) is None
        selected = []
        peak = peak_allocation(lambda: selected.append(topk_select(flat, k, scratch)))
        assert_selects_like_oracle(flat, k, selected[0])
        assert peak < 12 * scratch.nbytes, (kind, peak / scratch.nbytes)


class TestCompressorRoutesThroughKernel:
    @pytest.mark.parametrize("use_ef", [True, False])
    @pytest.mark.parametrize("size", [5000, 150_000])
    def test_compress_equals_oracle_recurrence(self, use_ef, size):
        """``compress`` == select-on-(grad + residual) with the oracle; with
        error feedback the residual is what it leaves in the accumulator."""
        rng = np.random.default_rng(size)
        comp = TopkCompressor(ratio=0.01, use_error_feedback=use_ef)
        residual = np.full(size, -0.0)
        accumulator = residual.copy()
        for _ in range(4):
            grad = heavy_tailed(rng, size)
            before = grad.copy()
            if use_ef:
                accumulator += grad
                payload = comp.compress(accumulator)
            else:
                payload = comp.compress(grad)
            np.testing.assert_array_equal(grad, before)
            work = grad + residual if use_ef else grad
            oracle = exact_topk_mask(work, payload.k)
            assert set(payload.indices.tolist()) == set(oracle.tolist())
            np.testing.assert_array_equal(payload.values, work[payload.indices])
            if use_ef:
                residual = work.copy()
                residual[oracle] = 0.0
                assert accumulator.tobytes() == residual.tobytes()

    def test_compress_accepts_float32_and_nd(self):
        rng = np.random.default_rng(0)
        grad = rng.standard_normal((40, 50)).astype(np.float32)
        payload = TopkCompressor(ratio=0.1, use_error_feedback=False).compress(grad)
        assert payload.num_elements == 2000 and payload.k == 200
        assert payload.values.dtype == np.float32  # the input's own
        # An N-d float64 accumulator is zeroed in place where it was sent.
        accumulator = grad.astype(np.float64)
        payload = TopkCompressor(ratio=0.1).compress(accumulator)
        assert payload.k == 200
        assert not accumulator.reshape(-1)[payload.indices].any()


def mlp_arena(world_size, hidden=64, bucket_bytes=None, seed=0):
    model = make_mlp(
        96, hidden, 10, depth=3, rng=np.random.default_rng(seed)
    ).astype(np.float64)
    return model, GradientArena(model, world_size, bucket_bytes=bucket_bytes)


def fill(arena, world_size, rng, scale=1.0):
    """Fresh gradients, written as backward writes them: added onto the
    residual in an attached error-feedback aggregator's carried views."""
    reference = []
    for slot in range(world_size):
        ref = heavy_tailed(rng, arena.layout.total_elements) * scale
        arena.load(slot, arena.layout.carve(ref))
        reference.append(ref)
    return reference, [arena.grads(slot) for slot in range(world_size)]


class TestSparseWire:
    """One rank's (index, value) pairs travel as one array in the values'
    dtype, the indices bit-cast into value lanes."""

    def test_float32_wire_keeps_indices_past_2_24_exact(self):
        indices = np.array([0, 5, 2**24 + 1, 2**31 - 1], dtype=np.int64)
        values = np.array([1.5, -0.0, np.inf, -3.25], dtype=np.float32)
        wire = sparse_wire(indices, values)
        assert wire.dtype == np.float32 and wire.nbytes == 8 * indices.size
        assert np.array_equal(wire[:4].view(np.int32), indices)
        assert wire[4:].tobytes() == values.tobytes()
        # What a numeric cast into the value lanes would have shipped:
        assert int(np.float32(2**24 + 1)) == 2**24

    def test_float64_wire_uses_int64_lanes(self):
        indices = np.array([3, 2**40], dtype=np.int64)
        wire = sparse_wire(indices, np.array([0.5, 2.0]))
        assert wire.dtype == np.float64
        assert np.array_equal(wire[:2].view(np.int64), indices)

    def test_an_index_past_the_lane_is_rejected(self):
        with pytest.raises(ValueError, match="lanes"):
            sparse_wire(np.array([2**31]), np.ones(1, dtype=np.float32))


class TestAggregatorConservation:
    @pytest.mark.parametrize("bucket_bytes", [None, 4096])
    @pytest.mark.parametrize("selection", ["exact", "sampled"])
    def test_error_feedback_conservation_bitwise(self, bucket_bytes, selection):
        """``sent + residual' == grad + residual`` for every rank, bit for bit.

        Each coordinate is either sent (and zeroed in the residual) or
        kept (and absent from the payload), so the sum has one non-zero
        operand per coordinate and is exact; what the ranks sent is read
        back from the aggregated mean of a world of one.
        """
        world = 1
        _, arena = mlp_arena(world, bucket_bytes=bucket_bytes)
        aggregator = TopkSGDAggregator(
            ProcessGroup(world), ratio=0.05, selection=selection
        )
        aggregator.attach(arena)
        rng = np.random.default_rng(7)
        residual = np.full(arena.layout.total_elements, -0.0)
        for _ in range(4):
            (grad,), grads = fill(arena, world, rng)
            out = aggregator.aggregate(grads)
            sent = np.concatenate([out[n].reshape(-1) for n in arena.layout.names])
            new_residual = arena.slab(0)
            assert np.count_nonzero(sent) > 0
            assert not np.any((sent != 0) & (new_residual != 0))
            np.testing.assert_array_equal(sent + new_residual, grad + residual)
            residual = new_residual.copy()
        arena.close()

    @pytest.mark.parametrize("bucket_bytes", [None, 4096])
    def test_dgc_error_feedback_conservation_bitwise(self, bucket_bytes):
        """DGC: ``sent + v' == v + (mu * u + g)`` for every coordinate, bit for bit.

        The velocity Top-k selects from is the carried one plus this step's
        corrected momentum, which backward formed in the slab; a sent
        coordinate is zeroed in ``v'`` and in the momentum, a kept one is
        absent from the payload, so the sum has one non-zero operand per
        coordinate and is exact. The slab is left holding ``mu * u'``.
        """
        world, momentum = 1, 0.9
        _, arena = mlp_arena(world, bucket_bytes=bucket_bytes)
        aggregator = make_aggregator(
            "dgc", ProcessGroup(world), ratio=0.05, momentum_correction=momentum
        )
        aggregator.attach(arena)
        state = aggregator.state_for(0)
        rng = np.random.default_rng(13)
        carried = v = np.zeros(arena.layout.total_elements)
        for _ in range(4):
            (grad,), grads = fill(arena, world, rng)
            out = aggregator.aggregate(grads)
            sent = np.concatenate([out[n].reshape(-1) for n in arena.layout.names])
            momentum_now = carried + grad
            velocity = v + momentum_now
            v, carried = state.velocity.copy(), arena.slab(0).copy()
            assert np.count_nonzero(sent) > 0
            assert not np.any((sent != 0) & (v != 0))
            np.testing.assert_array_equal(sent + v, velocity)
            np.testing.assert_array_equal(
                carried, momentum * np.where(sent != 0, 0.0, momentum_now)
            )
        arena.close()

    @pytest.mark.parametrize("use_ef", [True, False])
    @pytest.mark.parametrize("bucket_bytes", [None, 4096])
    def test_aggregate_matches_per_rank_oracle(self, use_ef, bucket_bytes):
        """The in-slab path == compress-per-rank + dense mean."""
        world = 3
        _, arena = mlp_arena(world, bucket_bytes=bucket_bytes)
        total = arena.layout.total_elements
        aggregator = TopkSGDAggregator(
            ProcessGroup(world), ratio=0.02, use_error_feedback=use_ef
        )
        aggregator.attach(arena)
        rng = np.random.default_rng(11)
        residuals = [np.zeros(total) for _ in range(world)]
        for _ in range(3):
            reference, grads = fill(arena, world, rng)
            out = aggregator.aggregate(grads)
            dense = np.zeros(total)
            for slot, grad in enumerate(reference):
                work = grad + residuals[slot] if use_ef else grad
                idx = exact_topk_mask(work, max(1, int(round(0.02 * total))))
                np.add.at(dense, idx, work[idx])
                if use_ef:
                    work = work.copy()
                    work[idx] = 0.0
                    residuals[slot] = work
            dense /= world
            got = np.concatenate([out[n].reshape(-1) for n in arena.layout.names])
            np.testing.assert_array_equal(got, dense)
            # Decoded from the selections, never a view of a slab.
            first = out[arena.layout.names[0]]
            assert not any(
                np.shares_memory(first, arena.slab(slot)) for slot in range(world)
            )
        arena.close()

    def test_sparse_aggregate_out(self):
        from repro.compression.topk import SparsePayload

        p1 = SparsePayload(np.array([0, 2]), np.array([1.0, 2.0]), 4)
        p2 = SparsePayload(np.array([2, 3]), np.array([3.0, 4.0]), 4)
        out = np.full(4, 99.0)
        result = sparse_aggregate([p1, p2], (2, 2), out=out)
        assert np.shares_memory(result, out) and result.shape == (2, 2)
        np.testing.assert_array_equal(out, sparse_aggregate([p1, p2], (4,)))
        with pytest.raises(ValueError, match="out"):
            sparse_aggregate([p1, p2], (4,), out=np.zeros(5))
        with pytest.raises(ValueError, match="out"):
            sparse_aggregate([p1, p2], (4,), out=np.zeros(4, dtype=np.float32))


class TestSteadyStateAllocations:
    @pytest.mark.parametrize("make", [
        lambda group: TopkSGDAggregator(group, ratio=0.001),
        lambda group: TopkSGDAggregator(group, ratio=0.001, use_error_feedback=False),
        lambda group: make_aggregator("dgc", group, ratio=0.001),
    ], ids=["ef", "no_ef", "dgc"])
    def test_aggregate_and_sgd_step_allocate_o_k_world(self, make):
        """A ≥1M-element steady-state step allocates O(k * world), not O(N)."""
        world = 4
        model = make_mlp(768, 1024, 10, depth=2, rng=np.random.default_rng(0))
        arena = GradientArena(model, world)
        total = arena.layout.total_elements
        assert total >= 1_000_000
        aggregator = make(ProcessGroup(world))
        optimizer = SGD(model, lr=0.01, momentum=0.9)
        rng = np.random.default_rng(1)
        reference = [heavy_tailed(rng, total) for _ in range(world)]

        def step():
            # Refilled, not added onto: measured without a carried residual.
            for slot, ref in enumerate(reference):
                np.copyto(arena.slab(slot), ref)
            grads = [arena.grads(slot) for slot in range(world)]
            optimizer.step(aggregator.aggregate(grads))

        for _ in range(2):  # residuals, velocity and staging rows appear here
            step()
        peak = peak_allocation(step)
        k = int(round(0.001 * total))
        # Indices, values, the wire and its gathered copies: ~60 B per
        # selected element per rank, plus the candidate lists.
        assert peak < 150 * k * world, (peak, k)
        # Not even one full-size boolean mask (an eighth of a slab).
        assert peak < total, (peak, total)
        arena.close()


class TestSGDStepOracle:
    @pytest.mark.parametrize("momentum", [0.9, 0.0])
    @pytest.mark.parametrize("weight_decay", [0.0, 5e-4])
    def test_in_place_step_is_bitwise_the_textbook_update(
        self, momentum, weight_decay
    ):
        rng = np.random.default_rng(5)
        model = make_mlp(12, 9, 4, depth=3, rng=rng).astype(np.float64)
        optimizer = SGD(model, lr=0.05, momentum=momentum,
                        weight_decay=weight_decay)
        named = dict(model.named_parameters())
        weights = {name: p.data.copy() for name, p in named.items()}
        velocity = {}
        for step in range(5):
            grads = {
                name: rng.standard_normal(p.data.shape) for name, p in named.items()
            }
            if step == 2:  # signed zeros and a float32 gradient survive too
                first = next(iter(grads))
                grads[first] = (grads[first] * 0.0).astype(np.float32)
            before = {name: g.copy() for name, g in grads.items()}
            for view in grads.values():
                view.flags.writeable = False  # aggregated views are read-only
            optimizer.step(grads)
            for name, grad in before.items():
                g = grad
                if weight_decay:
                    g = g + weight_decay * weights[name]
                if momentum and name in velocity:
                    velocity[name] = momentum * velocity[name] + g
                else:
                    velocity[name] = g.astype(np.float64, copy=True)
                weights[name] = weights[name] - 0.05 * velocity[name]
                np.testing.assert_array_equal(named[name].data, weights[name])
                assert np.array_equal(
                    np.signbit(named[name].data), np.signbit(weights[name])
                )
                np.testing.assert_array_equal(
                    optimizer._velocity[name], velocity[name]
                )
                np.testing.assert_array_equal(grads[name], grad)

    def test_steady_state_step_allocates_nothing_full_size(self):
        model = make_mlp(
            768, 512, 10, depth=2, rng=np.random.default_rng(0)
        ).astype(np.float64)
        optimizer = SGD(model, lr=0.01, momentum=0.9, weight_decay=1e-4)
        rng = np.random.default_rng(1)
        grads = {
            name: rng.standard_normal(p.data.shape)
            for name, p in model.named_parameters()
        }
        optimizer.step(grads)  # velocities appear here
        largest = max(g.nbytes for g in grads.values())
        assert peak_allocation(lambda: optimizer.step(grads)) < largest // 100

    def test_skipped_and_misshapen_gradients(self):
        model = make_mlp(4, 3, 2, depth=2, rng=np.random.default_rng(0))
        optimizer = SGD(model, lr=0.1)
        named = dict(model.named_parameters())
        name = next(iter(named))
        before = {n: p.data.copy() for n, p in named.items()}
        optimizer.step({name: np.ones(named[name].data.shape)})
        for other, param in named.items():
            assert np.array_equal(param.data, before[other]) == (other != name)
        with pytest.raises(ValueError, match="shape"):
            optimizer.step({name: np.ones(7)})
