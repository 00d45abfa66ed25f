"""A ``Linear`` weight gradient kept as its factors in the arena entry.

With error feedback, ACP-SGD takes a carried slot's thin weight-gradient
products ``g^T x`` as their factors ``(a, b)`` and folds them into one
rank-(batch + r) update of the residual; the dense gradient is never
formed. Every other reader — ``Parameter.grad``, a dense
``accumulate_grad``, ``GradientArena.load``, the fallback S-SGD aggregator
— adds them first and must see the bits it saw when backward added them.
These are the hazards of that arrangement; the compressor's own arithmetic
is checked against the dense path in ``tests/test_lowrank_kernels.py``
(``TestFactoredOperand``).
"""

import numpy as np
import pytest

from repro.comm.process_group import ProcessGroup
from repro.compression.lowrank import LowRankState
from repro.compression.lowrank_kernels import blocked_matmul
from repro.models.convnets import make_mlp
from repro.nn import Linear, Module, ReLU, Sequential
from repro.nn.loss import CrossEntropyLoss
from repro.nn.parameter import Parameter, PendingProducts
from repro.optim.aggregators import AllReduceAggregator, make_aggregator
from repro.optim.sgd import SGD
from repro.perf.arena import GradientArena
from repro.perf.replicas import worker_pass
from repro.train.datasets import ArrayDataset
from repro.train.resilience import ResilienceConfig
from repro.train.trainer import DataParallelTrainer


def thin_product(rng, n, m, k):
    """``(a, b)`` as ``Linear`` hands them over: ``a`` a transposed view."""
    return rng.normal(size=(k, n)).T, rng.normal(size=(k, m))


def twin_slots(rng, shape):
    """A factored slot and a plain carried one over the same residual."""
    residual = rng.normal(size=shape)
    factored, dense = Parameter(np.zeros(shape)), Parameter(np.zeros(shape))
    pending = PendingProducts(shape)
    factored.attach_grad_slot(residual.copy(), carry=True, pending=pending)
    dense.attach_grad_slot(residual.copy(), carry=True)
    return factored, dense, pending


def dataset(rng, rows=48, width=128):
    return ArrayDataset(
        rng.standard_normal((rows, width)).astype(np.float32),
        rng.integers(0, 10, size=rows),
    )


def small_mlp():
    """Three Linear weights, all compressible at rank 2 and all carried in
    factored views. At batch 4 the 256×128 and 256×256 ones keep their
    factors; the 10×256 head's would be 42 % of it, so it is added."""
    return make_mlp(128, 256, 10, depth=2, rng=np.random.default_rng(0))


def keeps_factors(shape, k=4):
    """Whether a ``shape`` slot keeps one batch-``k`` product as factors."""
    n, m = shape
    return PendingProducts(shape).record(np.zeros((n, k)), np.zeros((k, m)))


def kept_names(arena, k=4):
    """The factored names whose batch-``k`` products stay factors."""
    return sorted(
        name for name in arena.factored if keeps_factors(arena.layout.shapes[name], k)
    )


def backward_into(arena, model, slot, seed):
    """One worker pass of ``model`` bound to ``arena``'s slab ``slot``."""
    arena.bind(model, slot)
    data = dataset(np.random.default_rng(7))
    return worker_pass(
        model, CrossEntropyLoss(), data, np.random.default_rng(seed), 4
    )


def pending_left(arena, slots):
    return [
        name
        for slot in slots
        for name, products in arena.grads(slot).pending.items()
        if products
    ]


class TestParameterEntry:
    def test_a_product_is_recorded_not_formed(self, rng):
        factored, _, pending = twin_slots(rng, (256, 192))
        before = factored._grad_slot.copy()
        a, b = thin_product(rng, 256, 192, 4)
        factored.accumulate_product(a, b)
        assert factored._grad_slot.tobytes() == before.tobytes()
        assert len(pending) == 1
        got_a, got_b = pending.arrays()
        assert not np.shares_memory(got_a, a) and not np.shares_memory(got_b, b)
        np.testing.assert_array_equal(got_a, a)
        np.testing.assert_array_equal(got_b, b)
        assert got_a.flags.f_contiguous  # the strides the product had
        assert factored.has_grad and pending  # has_grad adds nothing

    def test_grad_read_mid_step_is_todays_bits(self, rng):
        factored, dense, pending = twin_slots(rng, (96, 767))
        a, b = thin_product(rng, 96, 767, 4)
        factored.accumulate_product(a, b)
        assert pending
        dense.accumulate_product(a, b)
        assert factored.grad.tobytes() == dense.grad.tobytes()
        assert not pending

    def test_dense_accumulate_after_a_product_is_todays_bits(self, rng):
        """A parameter reached through a product and a plain gradient in
        one backward: the product is added first, as it was produced."""
        factored, dense, pending = twin_slots(rng, (96, 767))
        a, b = thin_product(rng, 96, 767, 4)
        grad = rng.normal(size=(96, 767))
        for param in (factored, dense):
            param.accumulate_product(a, b)
            param.accumulate_grad(grad)
        assert not pending
        assert factored._grad_slot.tobytes() == dense._grad_slot.tobytes()

    def test_two_products_concatenate_their_factors(self, rng):
        """Tied weights: two products on one slot are one product of
        ``[a1 | a2]`` and ``[b1 ; b2]``."""
        arena = GradientArena([("w", np.zeros((512, 256)))], 1)
        arena.carry(["w"], factored=True)
        grads = arena.grads(0)
        param = Parameter(np.zeros((512, 256)))
        param.attach_grad_slot(grads["w"], carry=True, pending=grads.pending["w"])
        products = [thin_product(rng, 512, 256, k) for k in (4, 3)]
        for a, b in products:
            param.accumulate_product(a, b)
        a, b = grads.pop_factors("w")
        assert a.shape == (512, 7) and b.shape == (7, 256)
        np.testing.assert_array_equal(a, np.hstack([a for a, _ in products]))
        np.testing.assert_array_equal(b, np.vstack([b for _, b in products]))
        assert grads.pop_factors("w") is None  # popped: forgotten

    def test_factors_are_kept_only_up_to_a_sixteenth_of_the_product(self, rng):
        """``16 K (n + m) <= n m`` over every recorded ``K``: on a 64×64
        slot two rows are kept (exactly a sixteenth), a third adds all of
        them, oldest first."""
        assert PendingProducts.MAX_SHARE == 16
        factored, dense, pending = twin_slots(rng, (64, 64))
        first, second = thin_product(rng, 64, 64, 2), thin_product(rng, 64, 64, 1)
        factored.accumulate_product(*first)
        assert len(pending) == 1
        factored.accumulate_product(*second)
        assert not pending
        for a, b in (first, second):
            dense.accumulate_product(a, b)
        assert factored._grad_slot.tobytes() == dense._grad_slot.tobytes()

    def test_pending_needs_a_carried_slot(self):
        with pytest.raises(ValueError, match="carried"):
            Parameter(np.zeros((2, 2))).attach_grad_slot(
                np.zeros((2, 2)), pending=PendingProducts((2, 2))
            )


@pytest.mark.parametrize(
    "method,kwargs,factored",
    [
        ("acpsgd", {}, True),
        ("acpsgd", {"use_error_feedback": False}, False),
        ("powersgd", {}, False),
        ("topk", {}, False),
        ("signsgd", {}, False),
        ("randomk", {}, False),
        ("ssgd", {}, False),
    ],
)
def test_only_acpsgd_with_error_feedback_takes_factors(method, kwargs, factored):
    arena = GradientArena(small_mlp(), 2)
    make_aggregator(method, ProcessGroup(2), **kwargs).attach(arena)
    assert arena.factored == (arena.carried if factored else frozenset())
    assert len(arena.factored) == (3 if factored else 0)
    assert kept_names(arena) == (sorted(arena.factored)[:2] if factored else [])


class TestOtherReaders:
    def test_arena_load_adds_pending_first(self, rng):
        arena = GradientArena([("w", np.zeros((256, 192)))], 1)
        arena.carry(["w"], factored=True)
        grads = arena.grads(0)
        param = Parameter(np.zeros((256, 192)))
        param.attach_grad_slot(grads["w"], carry=True, pending=grads.pending["w"])
        a, b = thin_product(rng, 256, 192, 4)
        loaded = rng.normal(size=(256, 192))
        param.accumulate_product(a, b)
        assert grads.pending["w"]
        arena.load(0, {"w": loaded})
        want = np.full((256, 192), -0.0)
        blocked_matmul(a, b, out=want, add=True)
        want += loaded
        assert grads["w"].tobytes() == want.tobytes()
        assert not grads.pending["w"]

    def test_fallback_window_reduces_todays_gradient(self):
        """The uncompressed S-SGD aggregator a fallback window swaps in adds
        the pending factors bucket by bucket and reduces exactly the ``E +
        G`` a slab would have held with the gradient added by backward."""
        world = 2
        model = small_mlp()
        factored = GradientArena(model, world, bucket_bytes=4096)
        make_aggregator("acpsgd", ProcessGroup(world), rank=2).attach(factored)
        dense = GradientArena(model, world, bucket_bytes=4096)
        dense.carry(factored.carried)
        for arena in (factored, dense):
            for slot in range(world):
                backward_into(arena, model, slot, seed=slot)
        assert pending_left(factored, range(world))
        got, want = (
            AllReduceAggregator(ProcessGroup(world)).aggregate(
                [arena.grads(slot) for slot in range(world)]
            )
            for arena in (factored, dense)
        )
        for name in want:
            assert got[name].tobytes() == want[name].tobytes(), name
        assert not pending_left(factored, range(world))

    def test_reset_drops_pending_factors(self):
        model = small_mlp()
        arena = GradientArena(model, 1)
        aggregator = make_aggregator("acpsgd", ProcessGroup(1), rank=2)
        aggregator.attach(arena)
        backward_into(arena, model, 0, seed=0)
        assert pending_left(arena, [0])
        aggregator.reset()
        assert not pending_left(arena, [0])
        for name in arena.carried:
            view = arena.grads(0)[name]
            assert not view.any() and np.signbit(view).all()


def mlp_trainer(workers="seq", world=2, model=None, data=None, **kwargs):
    model = small_mlp() if model is None else model
    return DataParallelTrainer(
        model,
        SGD(model, lr=0.05, momentum=0.9),
        make_aggregator("acpsgd", ProcessGroup(world), rank=2),
        dataset(np.random.default_rng(1)) if data is None else data,
        dataset(np.random.default_rng(2)),
        batch_size_per_worker=4,
        seed=1,
        workers=workers,
        **kwargs,
    )


def spy_on_compress(state, totals, arrivals):
    """Tally each tensor's gradients in and ``P Q^T`` sent, per rank, and
    the inner dimension of the factors it arrived with (``None``: dense).

    A gradient in is ``a @ b`` plus whatever backward added onto the
    residual the last compress left: all of it for a dense arrival,
    nothing (bit for bit) for a factored one.
    """
    compress = state.compress
    left = {}

    def wrapped(name, matrix, step, peer=None, factors=None):
        arrivals.append((name, None if factors is None else factors[0].shape[1]))
        grad = matrix - left.get(name, 0.0)
        if factors is not None:
            grad = grad + factors[0] @ factors[1]
        factor = compress(name, matrix, step, peer, factors)
        left[name] = matrix.copy()
        basis = state._carried[name]
        sent = (
            factor @ basis.T if LowRankState.compresses_p(step) else basis @ factor.T
        )
        totals[name] = (totals[name][0] + grad, totals[name][1] + sent)
        return factor

    state.compress = wrapped


class TestThroughTheTrainer:
    @pytest.mark.parametrize("buffer_bytes", [None, 4096])
    def test_error_feedback_is_conserved_and_no_factor_survives(self, buffer_bytes):
        """Sum of every rank's gradients == sum of what it sent + its
        residual (Algorithm 2), through eager WFBP buckets and whole-model
        aggregation alike, for the factored weights and the added head."""
        world = 2
        model = small_mlp().astype(np.float64)  # a float64 tolerance below
        with mlp_trainer(
            world=world, model=model, buffer_bytes=buffer_bytes
        ) as trainer:
            arena, aggregator = trainer._arena, trainer.aggregator
            names = sorted(arena.factored)
            totals = {rank: {n: (0.0, 0.0) for n in names} for rank in range(world)}
            arrivals = []
            for rank in range(world):
                spy_on_compress(aggregator.state_for(rank), totals[rank], arrivals)
            for _ in range(6):
                trainer.train_step()
                assert not pending_left(arena, range(world))
            assert trainer.reducer.eager_steps == 6
            kept = kept_names(arena)
            assert sorted(set(arrivals)) == sorted(
                [(name, 4) for name in kept]
                + [(name, None) for name in names if name not in kept]
            )
            for slot in range(world):
                residual = arena.grads(slot)
                for name in names:
                    got, sent = totals[slot][name]
                    gap = sent + residual[name] - got
                    scale = max(np.linalg.norm(got), 1.0)
                    assert np.linalg.norm(gap) / scale <= 1e-10, (slot, name)

    def test_process_workers_ship_the_factors_and_match_seq(self):
        """Children return their factors beside the batch statistics; the
        parent's compressor consumes them, deferred, exactly as an eager
        sequential step does."""
        with mlp_trainer(buffer_bytes=4096) as seq, \
                mlp_trainer("process", buffer_bytes=4096) as proc:
            pool = proc._workers
            run_step, shipped = pool.run_step, []

            def spy(tasks, capture_errors=False):
                results = run_step(tasks, capture_errors)
                shipped.append([sorted(result.factors) for result in results])
                return results

            pool.run_step = spy
            for _ in range(4):  # two of each parity
                seq.train_step()
                proc.train_step()
            names = kept_names(proc._arena)
            assert len(names) == 2
            assert shipped == [[names, names]] * 4
            assert not pending_left(proc._arena, range(2))
            assert (
                proc.model.state_vector().tobytes()
                == seq.model.state_vector().tobytes()
            )

    def test_finite_check_reads_the_pending_factors(self):
        """A non-finite factor is a non-finite gradient: the step is
        skipped, and the skip drops every pending factor with the
        residuals."""
        resilience = ResilienceConfig(fallback_steps=1, checkpoint_interval=0)
        with mlp_trainer(resilience=resilience) as trainer:
            name = kept_names(trainer._arena)[0]
            apply = trainer._resilient_apply
            seen = []

            def poisoned(mean_loss, per_worker):
                if trainer._step_count == 2:
                    _, x = per_worker[1].pending[name].arrays()
                    x[0, 0] = np.nan  # the layer input, not the residual
                result = apply(mean_loss, per_worker)
                seen.append(pending_left(trainer._arena, range(2)))
                return result

            trainer._resilient_apply = poisoned
            for _ in range(3):
                trainer.train_step()
            log = trainer.resilience_log
            assert (log.skipped_steps, log.fallback_steps_run) == (1, 1)
            # Caught before any communication, not only in the aggregate.
            assert log.notes == ["step 2: skipped (non-finite local loss or gradient)"]
            assert seen == [[], [], []]


MARK = 3.0  # feature 0 of every odd row: rank 1's shard at world 2


class Marked(Module):
    """Identity that notes whether its batch carries :data:`MARK`."""

    seen = False

    def forward(self, x):
        self.seen = bool((x[:, 0] == MARK).any())
        return x

    def backward(self, grad_output):
        return grad_output


class FailsAfterMarked(Module):
    """Identity whose backward raises once, for the first marked batch."""

    def __init__(self, marked):
        super().__init__()
        self.marked = marked
        self.armed = True

    def forward(self, x):
        return x

    def backward(self, grad_output):
        if self.armed and self.marked.seen:
            self.armed = False
            raise RuntimeError("backward failed mid-pass")
        return grad_output


@pytest.mark.parametrize("workers", ["seq", "process"])
def test_a_failed_pass_leaves_no_factor_to_the_next_step(workers):
    """Rank 1's first backward raises after the second hidden weight
    recorded its factors; the caller catches it and steps again. That
    step's compress gets the batch's own factors (``K`` = 4), not the
    failed step's beside them: the process child records into fresh
    entries per task, and the trainer drops what a failed step left in
    the arena (sequentially: rank 0's whole pass and rank 1's part)."""
    rng = np.random.default_rng(0)
    marked = Marked()
    model = Sequential(
        marked, Linear(128, 256, rng=rng), FailsAfterMarked(marked), ReLU(),
        Linear(256, 256, rng=rng), ReLU(),
        Linear(256, 10, rng=rng),
    )
    data = dataset(np.random.default_rng(1))
    data.inputs[:, 0] = 0.0
    data.inputs[1::2, 0] = MARK
    with mlp_trainer(workers, model=model, data=data) as trainer:
        arena, aggregator = trainer._arena, trainer.aggregator
        names = kept_names(arena)
        first, second = names  # in forward order
        with pytest.raises(RuntimeError, match="backward failed mid-pass"):
            trainer.train_step()
        if workers == "seq":
            assert sorted(pending_left(arena, range(2))) == [first, second, second]
        arrivals = []
        for rank in range(2):
            totals = {name: (0.0, 0.0) for name in arena.factored}
            spy_on_compress(aggregator.state_for(rank), totals, arrivals)
        trainer.train_step()
        assert sorted(arrivals, key=str) == sorted(
            [(name, 4) for name in names] * 2
            + [(name, None) for name in arena.factored if name not in names] * 2,
            key=str,
        )
        assert not pending_left(arena, range(2))


def test_a_task_error_leaves_no_reply_unread():
    """Rank 0's child raises in backward once; the caller catches it and
    steps again. The failed step read every child's reply, so the next
    step reads its own and leaves none behind (no loss, BatchNorm
    statistic or factor lands a step late)."""
    rng = np.random.default_rng(0)
    marked = Marked()
    model = Sequential(
        marked, Linear(128, 256, rng=rng), FailsAfterMarked(marked), ReLU(),
        Linear(256, 10, rng=rng),
    )
    data = dataset(np.random.default_rng(1))
    data.inputs[:, 0] = 0.0
    data.inputs[0::3, 0] = MARK  # rank 0's shard at world 3
    with mlp_trainer("process", world=3, model=model, data=data) as trainer:
        with pytest.raises(RuntimeError, match="backward failed mid-pass"):
            trainer.train_step()
        trainer.train_step()
        unread = {
            rank: conn.poll(0.5)
            for rank, (conn, _) in trainer._workers._children.items()
        }
        assert unread == {0: False, 1: False, 2: False}
