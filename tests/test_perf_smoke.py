"""Hot-path regression checks: the arena path must stay allocation-free.

Marked ``perf`` (and run in the default suite): these assertions are what
keeps the zero-copy property from silently regressing — a stray
``concatenate`` or per-step scratch allocation in the fused path fails
here before it shows up in the tracked benchmark.
"""

import tracemalloc

import numpy as np
import pytest

from repro.comm.process_group import ProcessGroup
from repro.compression.wire import low_rank_split
from repro.models.convnets import make_mlp, make_small_vgg
from repro.optim.aggregators import AllReduceAggregator, make_aggregator
from repro.optim.sgd import SGD
from repro.perf.arena import GradientArena
from repro.perf.counters import ALLOC_STATS
from repro.train.datasets import ArrayDataset, make_cifar_like
from repro.train.trainer import DataParallelTrainer

pytestmark = pytest.mark.perf


def mlp_arena(world_size=4, seed=0):
    model = make_mlp(64, 96, 10, rng=np.random.default_rng(seed))
    arena = GradientArena(model, world_size)
    rng = np.random.default_rng(seed + 1)
    reference = [
        rng.standard_normal(arena.layout.total_elements)
        for _ in range(world_size)
    ]

    def refill():
        # Overwrites: an aggregator the arena is not attached to sees the
        # same gradients every call, with no residual carried over.
        for slot, ref in enumerate(reference):
            np.copyto(arena.slab(slot), ref)
        return [arena.grads(slot) for slot in range(world_size)]

    return arena, refill


def peak_allocation(call):
    """Bytes allocated at peak, over the starting level, while ``call()`` runs."""
    tracemalloc.start()
    try:
        baseline = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - baseline


class TestZeroFusedAllocations:
    def test_arena_ssgd_aggregate_makes_no_fused_copies(self):
        world_size = 4
        arena, refill = mlp_arena(world_size)
        aggregator = AllReduceAggregator(ProcessGroup(world_size))
        aggregator.aggregate(refill())  # warmup: ring scratch allocates here
        ALLOC_STATS.reset()
        for _ in range(5):
            aggregator.aggregate(refill())
        assert ALLOC_STATS.pack_copies == 0
        assert ALLOC_STATS.fused_allocs == 0

    @pytest.mark.parametrize(
        "method", ["signsgd", "topk", "powersgd", "acpsgd"]
    )
    def test_arena_compressed_aggregate_makes_no_fused_copies(self, method):
        """Every bucket-capable method stages into preallocated scratch."""
        world_size = 4
        arena, refill = mlp_arena(world_size)
        aggregator = make_aggregator(method, ProcessGroup(world_size))
        for _ in range(2):  # warmup: both ACP-SGD parities size their packs
            aggregator.aggregate(refill())
        ALLOC_STATS.reset()
        for _ in range(4):
            aggregator.aggregate(refill())
        assert ALLOC_STATS.pack_copies == 0
        assert ALLOC_STATS.fused_allocs == 0

    def test_train_step_makes_no_fused_copies(self):
        train_data, test_data = make_cifar_like(num_train=32, num_test=8, seed=0)
        model = make_small_vgg(base_width=2, rng=np.random.default_rng(0))
        trainer = DataParallelTrainer(
            model,
            SGD(model, lr=0.05),
            AllReduceAggregator(ProcessGroup(4)),
            train_data,
            test_data,
            batch_size_per_worker=4,
            seed=0,
        )
        trainer.train_step()  # warmup
        ALLOC_STATS.reset()
        for _ in range(3):
            trainer.train_step()
        assert ALLOC_STATS.pack_copies == 0
        assert ALLOC_STATS.fused_allocs == 0

    def test_legacy_path_still_counts_copies(self):
        """The counters themselves must not rot: adopting plain dicts
        registers one packing copy per worker."""
        world_size = 2
        arena, refill = mlp_arena(world_size)
        grads = refill()
        plain = [{name: np.asarray(g[name]) for name in g} for g in grads]
        aggregator = AllReduceAggregator(ProcessGroup(world_size))
        ALLOC_STATS.reset()
        aggregator.aggregate(plain)
        assert ALLOC_STATS.pack_copies == world_size


class TestSteadyStateMemory:
    def test_aggregate_peak_allocation_below_slab_size(self):
        """After warmup, one aggregation step allocates far less than one
        fused buffer — i.e. no hidden per-step slab-sized temporaries."""
        world_size = 4
        arena, refill = mlp_arena(world_size)
        aggregator = AllReduceAggregator(ProcessGroup(world_size))
        aggregator.aggregate(refill())  # warmup: scratch + history settle
        per_worker = refill()
        slab_bytes = arena.slab(0).nbytes
        peak = peak_allocation(lambda: aggregator.aggregate(per_worker))
        assert peak < slab_bytes // 2, (
            f"aggregation allocated {peak} bytes at peak; "
            f"slab is {slab_bytes} — the zero-copy path has regressed"
        )

    @pytest.mark.parametrize(
        "method", ["topk", "signsgd", "randomk", "acpsgd", "powersgd"]
    )
    def test_ef_aggregator_retains_one_residual_per_rank(self, method):
        """An error-feedback aggregator's one residual per rank is that
        rank's arena slab, and the result is decoded block by block in the
        optimizer: beyond the arena it retains scratch, factors and
        Sign-SGD's one-byte vote — at most a quarter of a slab, never a
        model-sized buffer (``world + 1.5`` slabs before the residuals
        moved into the arena, 1.5 with a full-size result buffer)."""
        world_size = 4
        # Big enough that rank-4 factors and block scratch are a few percent
        # of the slab.
        model = make_mlp(768, 1024, 10, depth=2, rng=np.random.default_rng(0))
        arena = GradientArena(model, world_size)
        slab_bytes = arena.slab(0).nbytes
        rng = np.random.default_rng(1)
        reference = [
            arena.layout.carve(rng.standard_normal(arena.layout.total_elements))
            for _ in range(world_size)
        ]
        tracemalloc.start()
        try:
            baseline = tracemalloc.get_traced_memory()[0]
            aggregator = make_aggregator(method, ProcessGroup(world_size))
            aggregator.attach(arena)
            for _ in range(3):
                aggregator.aggregate([
                    arena.load(slot, grads) for slot, grads in enumerate(reference)
                ])
            retained = tracemalloc.get_traced_memory()[0] - baseline
        finally:
            tracemalloc.stop()
        assert retained <= 0.25 * slab_bytes, (
            f"{method} retains {retained} bytes beside the arena; the slab is "
            f"{slab_bytes} — a model-sized buffer per rank is back"
        )


class TestLowRankSteadyStateMemory:
    """The low-rank hot path keeps one residual per tensor and nothing else
    full-size: no ``astype`` copy, no ``work + residual``, no
    ``work - P Q^T`` temporaries, and one reconstruction per tensor."""

    def test_acpsgd_compress_allocates_no_full_size_temporary(self):
        from repro.compression.lowrank import LowRankState

        rng = np.random.default_rng(0)
        grad = rng.standard_normal((1024, 1024))
        state = LowRankState(rank=4)
        factor = state.compress("w", grad, 1)  # grad is the accumulator
        state.adopt("w", factor, 1)
        for step in (2, 3):  # one left (two-pass) and one right projection
            factors = []
            peak = peak_allocation(
                lambda: factors.append(state.compress("w", grad, step))
            )
            state.adopt("w", factors[0], step)
            assert peak < 1 << 20, (
                f"compress allocated {peak} bytes at step {step}; "
                f"the gradient is {grad.nbytes} — a full-size temporary is back"
            )

    @pytest.mark.parametrize("method", ["acpsgd", "powersgd"])
    def test_lowrank_aggregate_peaks_near_one_reconstruction(self, method):
        """``M_hat`` is never formed whole: the optimizer decodes it block
        by block from the rank-r factors, so aggregation peaks at block
        scratch and factors, a few percent of one worker's compressible
        gradients (1.0 x of them when it formed one fresh ``P Q^T``)."""
        world_size = 4
        model = make_mlp(768, 1024, 10, depth=3, rng=np.random.default_rng(0))
        arena = GradientArena(model, world_size)
        rng = np.random.default_rng(1)
        for slot in range(world_size):
            np.copyto(
                arena.slab(slot),
                rng.standard_normal(arena.layout.total_elements),
            )
        per_worker = [arena.grads(slot) for slot in range(world_size)]
        aggregator = make_aggregator(method, ProcessGroup(world_size), rank=4)
        grads = list(per_worker[0].values())
        factored, _ = low_rank_split([g.shape for g in grads], 4)
        compressible_bytes = sum(grads[i].nbytes for i in factored)
        for _ in range(2):  # staging rows and scratch settle
            aggregator.aggregate(per_worker)
        for _ in range(2):  # an even and an odd step
            peak = peak_allocation(lambda: aggregator.aggregate(per_worker))
            assert peak < 0.1 * compressible_bytes, (
                f"{method} aggregate allocated {peak} bytes at peak; one "
                f"worker's compressible gradients are {compressible_bytes}"
            )


MLP_WORLD = 4


def mlp_trainer(method, buffer_bytes=None, world=MLP_WORLD, **trainer_kwargs):
    """The perfbench MLP (2.9M parameters, 11.1 MiB of float32 gradient)."""
    rng = np.random.default_rng(0)
    data = ArrayDataset(
        rng.standard_normal((64, 768)).astype(np.float32),
        rng.integers(0, 10, size=64),
    )
    model = make_mlp(768, 1024, 10, depth=3, rng=rng)
    kwargs = {"rank": 4} if method in ("acpsgd", "powersgd") else {}
    return DataParallelTrainer(
        model,
        SGD(model, lr=0.02, momentum=0.9),
        make_aggregator(method, ProcessGroup(world), **kwargs),
        data,
        data,
        batch_size_per_worker=4,
        seed=0,
        buffer_bytes=buffer_bytes,
        **trainer_kwargs,
    )


def step_peak(trainer, warmup=2, measured=2):
    """Largest transient of a steady-state ``train_step``, in bytes.

    Two warm-up steps size every grow-only scratch (both ACP-SGD parities);
    the two measured ones are an odd and an even step.
    """
    for _ in range(warmup):
        trainer.train_step()
    return max(peak_allocation(trainer.train_step) for _ in range(measured))


class TestStepAllocatesNothingModelSized:
    """The producer side of the zero-copy path: weight gradients are formed
    in (or added block by block onto) the arena slot, the error-feedback
    residual is the slot itself, and the optimizer decodes low-rank
    products, the Sign-SGD vote and the sparse sums one block at a time, so
    a steady-state step of a paper method allocates O(batch) activations,
    O(k * world) payloads and block scratch — under 5.5 MiB, a quarter of
    the model in float64 (half of its float32 gradient). Recorded at world
    4, monolithic, in MiB, in float32 (float64 in parentheses): ssgd 0.1
    (0.2), acpsgd 0.6 (1.2; every rank's ``Linear`` weight gradients as
    their factors ``(g^T, x)`` until its compress consumes them), powersgd
    0.2 (0.4), signsgd 4.2 (4.2: the bool mask ``packbits`` reads, plus the
    gathered bits, a byte or a bit per element in any precision), topk 3.1
    (5.3: selection, wire and gathered copy of ``2k * world`` numbers).
    """

    @staticmethod
    def quarter(trainer):
        """A quarter of the model's parameters at 8 bytes each."""
        return trainer.model.num_parameters() * 8 // 4

    @pytest.mark.parametrize("buffer_bytes", [None, 1 << 20])
    @pytest.mark.parametrize(
        "method", ["ssgd", "topk", "acpsgd", "powersgd", "signsgd"]
    )
    def test_paper_methods(self, method, buffer_bytes):
        with mlp_trainer(method, buffer_bytes) as trainer:
            peak = step_peak(trainer)
            assert peak < self.quarter(trainer), (
                f"{method} step allocated {peak / 2**20:.1f} MiB at peak; a "
                f"quarter of the model is {self.quarter(trainer) / 2**20:.1f}"
            )

    # Random-k selects and zeroes in its slab and is decoded block by block
    # (2.3 MiB in float32, 3.6 in float64; 113.2 MiB with a residual beside
    # the slab); DGC is Top-k's path with a velocity beside the slab (3.1;
    # 5.3; 182.1 MiB on a path of its own). QSGD and TernGrad still
    # quantize and decode through full-size float temporaries (MiB today,
    # float32; 176.8 / 73.9 in float64); strict, so closing a gap moves its
    # row up.
    @pytest.mark.parametrize(
        "method",
        ["randomk", "dgc"] + [
            pytest.param(m, marks=pytest.mark.xfail(strict=True, reason=why))
            for m, why in [("qsgd", "99.5 MiB"), ("terngrad", "40.8 MiB")]
        ],
    )
    def test_extension_methods(self, method):
        with mlp_trainer(method) as trainer:
            assert step_peak(trainer, warmup=1, measured=1) < self.quarter(trainer)

    def test_second_micro_batch_still_adds(self):
        """Only a step's first gradient may be formed in the slot; a second
        backward before ``zero_grad`` adds its weight gradient onto it one
        row block at a time, allocating no weight gradient at all."""
        from repro.perf.replicas import worker_pass

        with mlp_trainer("ssgd") as trainer:
            model, loss_fn = trainer.model, trainer.loss_fn
            shard, slab = trainer.train_shards[0], trainer._arena.slab(0)
            trainer._arena.bind(model, 0)
            rng = np.random.default_rng(5)
            worker_pass(model, loss_fn, shard, rng, 4)

            def second_backward():
                inputs, labels = shard.batch(rng, 4)
                loss_fn(model(inputs), labels)
                model.backward(loss_fn.backward())

            assert peak_allocation(second_backward) < self.quarter(trainer)
            summed = slab.copy()
            rng = np.random.default_rng(5)  # the same two batches, one a pass
            worker_pass(model, loss_fn, shard, rng, 4)
            want = slab.copy()
            worker_pass(model, loss_fn, shard, rng, 4)
            want += slab
            assert summed.tobytes() == want.tobytes()

    def test_process_workers_write_the_shared_slots(self):
        """A shared-memory slot is as good an ``out=`` target as a private
        one: same weights as sequential workers, and the parent — which
        only aggregates — allocates nothing model-sized either."""
        world = 2
        with mlp_trainer("acpsgd", 1 << 20, world) as seq, \
                mlp_trainer("acpsgd", 1 << 20, world, workers="process") as proc:
            assert step_peak(proc) < self.quarter(proc)
            for _ in range(4):
                seq.train_step()
            assert (
                proc.model.state_vector().tobytes()
                == seq.model.state_vector().tobytes()
            )


class TestPlannerColdPathCounts:
    """What a planner cache miss costs, as deterministic counts: the event
    loop polls each resource about once per event and prices contention only
    when two paired resources are busy; a plan builds each priced skeleton
    once — and still runs every distinct simulation it ran before (the tuner
    prices each fusion plan once: ``tests/test_autotune_dedupe.py``)."""

    def test_event_loop_polls_and_rate_lookups_per_task(self, monkeypatch):
        from repro.models import get_model_spec
        from repro.sched import EventLoop, FifoScheduler, ResourceModel
        from repro.sim.strategies import build_iteration_graph

        calls = {"select": 0, "rates": 0}

        def counted(fn, name):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(FifoScheduler, "select",
                            counted(FifoScheduler.select, "select"))
        monkeypatch.setattr(ResourceModel, "rates",
                            counted(ResourceModel.rates, "rates"))

        # The second graph is 2.8x the first: polls per task must not grow
        # with the graph (0.102 and 0.066 per task, the FF/BP chain running
        # as a solo stretch; 1.954 and 1.964 polling every idle lane per
        # event, 3.91 before the counting loop, and a loop that rescans its
        # gates grows with the task count).
        for name, tasks, polls in [("ResNet-50", 283, 29),
                                   ("ResNet-152", 803, 53)]:
            graph = build_iteration_graph("acpsgd", get_model_spec(name))
            calls.update(select=0, rates=0)
            model = ResourceModel.gpu_contention(0.15)
            records = EventLoop(model).run(graph)
            assert len(records) == len(graph) == tasks
            assert calls["select"] <= polls <= 2 * tasks
            assert calls["rates"] == 0  # no gpu_side task: was once per event

    def test_one_plan_builds_each_skeleton_once(self, monkeypatch):
        import repro.planner
        import repro.sim.autotune
        from repro.sched import Task
        from repro.sim import strategies
        from repro.sim.engine import Engine

        strategies._SKELETONS.clear()  # the counts are a cold plan's
        counts = {"tasks": 0, "assess": 0, "probe": 0, "runs": 0}

        def counted(fn, name):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(
            Task, "__post_init__", counted(Task.__post_init__, "tasks"))
        monkeypatch.setattr(repro.planner, "simulate_iteration", counted(
            repro.planner.simulate_iteration, "assess"))
        monkeypatch.setattr(repro.sim.autotune, "simulate_iteration", counted(
            repro.sim.autotune.simulate_iteration, "probe"))
        monkeypatch.setattr(Engine, "run", counted(Engine.run, "runs"))

        result = repro.planner.plan("ResNet-50", gpus=32, tune_buffer=True)
        assert result.recommended_method == "acpsgd"  # both parities tuned
        # 11 buffer sizes probed, 9 distinct pairs of fusion plans among them.
        assert len(result.tuning.evaluated) == 11
        assert (counts["assess"], counts["probe"], counts["runs"]) == (6, 9, 25)
        assert counts["tasks"] <= 3700  # 9 235 before
