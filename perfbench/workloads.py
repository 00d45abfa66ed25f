"""The four perfbench workloads (see README.md for why each exists).

Every input — images, initial weights, sampling streams, the query
population and request stream — is generated here from ``seed``; the
program under test only ever sees the generated arrays and query
documents. A workload is driven through five calls: ``warmup()``, then per
operation ``between(i)`` (untimed as a latency, inside the window) and
``op(i)`` (the timed operation, returns ``False`` on a failed op), then
``finish()``; ``install(rec)`` wraps the layer boundaries for the traced
phase.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass
from statistics import median
from typing import Callable, Dict, List, Optional

import numpy as np

import repro.optim.aggregators as aggregators
import repro.planner
import repro.serve.service
import repro.sim.autotune
from repro.comm.process_group import ProcessGroup
from repro.models.convnets import make_mlp, make_small_vgg
from repro.optim.sgd import SGD
from repro.perf.arena import GradientArena
from repro.perf.counters import ALLOC_STATS
from repro.serve import SCHEMA_VERSION, PlannerService, PlanQuery, plan_from_dict
from repro.sim.calibration import SIM_LINKS
from repro.sim.engine import Engine
from repro.train.datasets import ArrayDataset, make_cifar_like
from repro.train.trainer import DataParallelTrainer

import spans

WORLD = 4
WARMUP_STEPS = 10
#: Steps in the trailing loss mean that is compared with the target.
TRAIL = 40


def sha256_of(*parts) -> str:
    digest = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            part = np.ascontiguousarray(part).tobytes()
        else:
            part = json.dumps(part, sort_keys=True).encode()
        digest.update(part)
    return digest.hexdigest()


# ----------------------------------------------------------------------
# Training workloads
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TrainSpec:
    model: str  # "vgg" or "mlp"
    batch: int  # per worker
    aggregator: Callable[[ProcessGroup], aggregators.GradientAggregator]
    buffer_bytes: Optional[int]  # None = monolithic aggregation
    #: Trailing-mean training loss that counts as "trained". Fixed per
    #: workload so time_to_target_s compares across commits, and chosen
    #: where the crossing step varies least between seeds (quartile spread
    #: 3% / 6.5% / 3% of the median over seeds 0-9; lower targets on the
    #: MLPs vary 10-20%). Reached at 45-50% of the step budget here.
    target: float


TRAIN_SPECS: Dict[str, TrainSpec] = {
    "conv_ssgd": TrainSpec(
        "vgg", 8, aggregators.AllReduceAggregator, None, target=0.05,
    ),
    "mlp_lowrank": TrainSpec(
        "mlp", 4, lambda g: aggregators.ACPSGDAggregator(g, rank=4),
        1 << 20, target=1.0,
    ),
    "mlp_sparse": TrainSpec(
        "mlp", 4, lambda g: aggregators.TopkSGDAggregator(g, ratio=0.01),
        None, target=1.0,
    ),
}

_LEAF_CLASSES = ("Conv2d", "BatchNorm2d", "MaxPool2d", "Linear", "ReLU")
_AGGREGATOR_CALLS = (
    "aggregate", "begin_buckets", "reduce_bucket", "finish_buckets",
)
_ALLREDUCE_CALLS = (
    "all_reduce", "all_reduce_", "all_reduce_segment", "all_reduce_segment_",
)


def _payload_bytes(buffers, *args, **kwargs) -> int:
    return sum(buffer.nbytes for buffer in buffers)


def _leaf_modules(module):
    children = list(module.submodules())
    if not children:
        yield module
    for child in children:
        yield from _leaf_modules(child)


class TrainWorkload:
    """Closed-loop training: one op = one ``trainer.train_step()``."""

    root_span = "train.step"

    def __init__(self, spec: TrainSpec, seed: int, smoke: bool) -> None:
        train, test = make_cifar_like(
            *((200, 50) if smoke else (2000, 500)), seed=seed
        )
        rng = np.random.default_rng(seed)
        if spec.model == "vgg":
            model = make_small_vgg(base_width=4 if smoke else 32, rng=rng)
        else:
            train = ArrayDataset(
                train.inputs.reshape(len(train), -1), train.labels
            )
            test = ArrayDataset(test.inputs.reshape(len(test), -1), test.labels)
            model = make_mlp(768, 64 if smoke else 1024, 10, depth=3, rng=rng)
        self.input_digest = sha256_of(
            train.inputs, train.labels, model.state_vector()
        )
        self.dense_bytes = model.num_parameters() * 8 * WORLD
        self.group = ProcessGroup(WORLD)
        self.aggregator = spec.aggregator(self.group)
        buffer_bytes = spec.buffer_bytes
        if smoke and buffer_bytes is not None:
            buffer_bytes //= 16  # keep several buckets on the small model
        self.trainer = DataParallelTrainer(
            model,
            SGD(model, lr=0.02, momentum=0.9),
            self.aggregator,
            train,
            test,
            batch_size_per_worker=2 if smoke else spec.batch,
            seed=seed,
            workers="seq",
            buffer_bytes=buffer_bytes,
        )
        self.target = math.inf if smoke else spec.target
        self.smoke_ops = TRAIL
        self.losses: List[float] = []
        self._ends: List[float] = []
        self._t_first: Optional[float] = None
        self._tracing = False
        self._counters: List[tuple] = []
        self._history_seen = 0
        self._wire_bytes = 0

    # -- driving ---------------------------------------------------------
    def warmup(self) -> None:
        for _ in range(WARMUP_STEPS):
            if not self.op(-1):
                raise RuntimeError("non-finite loss during warm-up")

    def at_boundary(self, i: int) -> bool:
        return True

    def between(self, i: int) -> None:
        if self._tracing:
            self._counters.append(self._read_counters())

    def op(self, i: int) -> bool:
        if self._t_first is None:
            self._t_first = time.perf_counter()
        loss = self.trainer.train_step()
        self._ends.append(time.perf_counter())
        self.losses.append(loss)
        return math.isfinite(loss)

    def finish(self) -> None:
        if self._tracing:
            self._counters.append(self._read_counters())
        self.trainer.close()

    def _read_counters(self) -> tuple:
        history = self.group.history
        self._wire_bytes += sum(
            stats.total_bytes for stats in history[self._history_seen:]
        )
        self._history_seen = len(history)
        return (
            ALLOC_STATS.fused_allocs, ALLOC_STATS.pack_copies,
            ALLOC_STATS.bucket_copies, self._wire_bytes,
        )

    # -- results ---------------------------------------------------------
    def steps_to_target(self) -> Optional[int]:
        """Steps (warm-up included) until the trailing mean loss <= target."""
        if len(self.losses) < TRAIL:
            return None
        trailing = np.convolve(
            self.losses, np.full(TRAIL, 1.0 / TRAIL), mode="valid"
        )
        reached = np.nonzero(trailing <= self.target)[0]
        return int(reached[0]) + TRAIL if reached.size else None

    def end_to_end(self, virtual) -> Dict[str, float]:
        steps = self.steps_to_target()
        if steps is None:
            return {}
        reached = virtual(self._ends[steps - 1]) - virtual(self._t_first)
        return {"time_to_target_s": float(reached)}

    def digests(self) -> Dict[str, str]:
        # Over the steps up to the target, so the digest does not depend on
        # how many steps the time-bounded window happened to fit.
        steps = self.steps_to_target() or 0
        return {
            "input": self.input_digest,
            "loss": sha256_of(np.asarray(self.losses[:steps], dtype=np.float64)),
        }

    def invalid_ops(self) -> List[int]:
        return []  # a non-finite loss already failed its op

    def checks(self) -> Dict[str, bool]:
        return {
            "losses_finite": all(math.isfinite(loss) for loss in self.losses),
            "target_reached": self.steps_to_target() is not None,
        }

    # -- tracing ---------------------------------------------------------
    def install(self, rec: spans.Recorder) -> None:
        trainer = self.trainer
        self._tracing = True
        rec.wrap(self, "op", self.root_span)
        for shard in trainer.train_shards.values():
            rec.wrap(shard, "batch", "train.data")
        rec.wrap(trainer.model, "forward", "nn.forward")
        rec.wrap(trainer.model, "backward", "nn.backward")
        for module in _leaf_modules(trainer.model):
            cls = type(module).__name__
            rec.wrap(module, "forward", f"nn.{cls}.fwd")
            rec.wrap(module, "backward", f"nn.{cls}.bwd")
        rec.wrap(trainer.loss_fn, "forward", "nn.loss")
        rec.wrap(trainer.loss_fn, "backward", "nn.loss")
        rec.wrap(GradientArena, "bind", "perf.arena.bind")
        for attr in _AGGREGATOR_CALLS:
            rec.wrap(self.aggregator, attr, f"optim.{attr}")
        for rank in self.aggregator.roster:
            state = self.aggregator.state_for(rank)
            if state is not None:
                rec.wrap(state, "compress", "compression.encode")
                if hasattr(state, "finalize"):
                    rec.wrap(state, "finalize", "compression.decode")
        rec.wrap(aggregators, "sparse_aggregate", "compression.decode")
        for attr in _ALLREDUCE_CALLS:
            rec.wrap(self.group, attr, "comm.allreduce", count=_payload_bytes)
        rec.wrap(self.group, "all_gather", "comm.allgather", count=_payload_bytes)
        rec.wrap(trainer.optimizer, "step", "optim.sgd")

    def per_layer(self, recorded: List[spans.Span]) -> Dict[str, float]:
        tallies = spans.tally_by_op(recorded)
        names = {name for by_name in tallies.values() for name in by_name}

        def med(selected, field="self_ns", scale=1.0):
            values = spans.per_op_values(tallies, selected, field)
            return median(values) * scale if values else None

        fwd = [n for n in names if n == "nn.forward" or n.endswith(".fwd")]
        bwd = [n for n in names if n == "nn.backward" or n.endswith(".bwd")]
        optim = [f"optim.{attr}" for attr in _AGGREGATOR_CALLS]
        comm = ["comm.allreduce", "comm.allgather"]
        codec = ["compression.encode", "compression.decode"]
        out = {
            "train.step.self_ms": med([self.root_span], scale=1e-6),
            "train.data.busy_ms": med(["train.data"], scale=1e-6),
            "nn.forward.busy_ms": med(fwd, scale=1e-6),
            "nn.backward.busy_ms": med(bwd, scale=1e-6),
            "nn.loss.busy_ms": med(["nn.loss"], scale=1e-6),
            "perf.arena.bind_ms": med(["perf.arena.bind"], scale=1e-6),
            "optim.aggregate.self_ms": med(optim, scale=1e-6),
            "optim.aggregate.calls": med(optim, "calls"),
            "optim.sgd.busy_ms": med(["optim.sgd"], scale=1e-6),
            "compression.encode_ms": med(["compression.encode"], scale=1e-6),
            "compression.decode_ms": med(["compression.decode"], scale=1e-6),
            "compression.calls": med(codec, "calls"),
            "comm.busy_ms": med(comm, scale=1e-6),
            "comm.allreduce_ms": med(["comm.allreduce"], scale=1e-6),
            "comm.allgather_ms": med(["comm.allgather"], scale=1e-6),
            "comm.calls": med(comm, "calls"),
            "train.reducer.buckets": med(["optim.reduce_bucket"], "calls"),
        }
        for cls in _LEAF_CLASSES:
            out[f"nn.{cls}.fwd_ms"] = med([f"nn.{cls}.fwd"], scale=1e-6)
            out[f"nn.{cls}.bwd_ms"] = med([f"nn.{cls}.bwd"], scale=1e-6)
        out["compression.ratio"] = self.dense_bytes / med(comm, "count")
        buckets = [
            index for index, span in enumerate(recorded)
            if span.name == "optim.reduce_bucket"
        ]
        if buckets:
            out["train.reducer.eager_share"] = sum(
                spans.has_ancestor(recorded, index, "nn.backward")
                for index in buckets
            ) / len(buckets)
        deltas = np.diff(np.asarray(self._counters), axis=0)
        for column, name in enumerate((
            "perf.arena.fused_allocs", "perf.arena.pack_copies",
            "perf.arena.bucket_copies", "comm.bytes",
        )):
            out[name] = float(np.median(deltas[:, column]))
        out["train.steps_to_target"] = self.steps_to_target()
        # A layer this workload never enters is absent, not 0.
        return {name: value for name, value in out.items() if value is not None}


# ----------------------------------------------------------------------
# Planner workload
# ----------------------------------------------------------------------
_MODELS = ("ResNet-18", "ResNet-50", "BERT-Base", "VGG-16")  # fast to simulate
_GPUS = (8, 16, 32, 64)
_LINKS = ("10GbE", "1GbE", "100GbIB")
#: Requests per key per epoch: 1 miss + 5 repeats, so misses are 1/6 of
#: ops and p90 sits at the 40th percentile of miss latencies, inside the
#: 20-26 ms cluster and 13 points from its edge (see README.md).
OPS_PER_KEY = 6
ZIPF_EXPONENT = 1.1
IDENTITY_SAMPLES = 32
#: Fixed synthetic bucket timings for ``recalibrate`` (alpha-beta exact).
_CALIBRATION_SAMPLES = tuple(
    (nbytes, 2 * 7 * 2e-5 + 2 * nbytes * 7 / (8 * 1.2e9))
    for nbytes in (1e5, 1e6, 4e6, 1.6e7)
)


def query_population(smoke: bool) -> List[dict]:
    """The query documents, in a fixed order (the seed orders the stream)."""
    models = _MODELS[-1:] + _MODELS[:1] if smoke else _MODELS
    gpus = _GPUS[:2] if smoke else _GPUS
    links = _LINKS[:1] if smoke else _LINKS
    return [
        PlanQuery(
            model=model, gpus=world, link=SIM_LINKS[link], tune_buffer=tune,
        ).to_dict()
        for model in models
        for world in gpus
        for link in links
        for tune in (False, True)
    ]


def epoch_stream(seed: int, epoch: int, keys: int):
    """One epoch of requests: ``(key index per op, is-first-occurrence)``.

    Every key appears once as a first occurrence (a miss: the cache was
    invalidated at the epoch boundary) at a seeded random position, the
    first slot always being one; every other slot repeats a key already
    seen this epoch, drawn Zipf(1.1) over the keys in order of appearance.
    """
    rng = np.random.default_rng([seed, epoch])
    length = keys * OPS_PER_KEY
    first = np.zeros(length, dtype=bool)
    first[0] = True
    first[1 + rng.choice(length - 1, size=keys - 1, replace=False)] = True
    appearance = rng.permutation(keys)
    seen = np.cumsum(first)  # keys seen up to and including each slot
    weights = np.cumsum(np.arange(1, keys + 1, dtype=np.float64) ** -ZIPF_EXPONENT)
    draws = rng.random(length) * weights[seen - 1]
    ranks = np.searchsorted(weights, draws, side="right")
    order = np.where(first, appearance[seen - 1], appearance[ranks])
    return order, first


class PlanWorkload:
    """Closed-loop planning: one op = parse doc -> submit -> read payload."""

    root_span = "serve.request"

    def __init__(self, seed: int, smoke: bool) -> None:
        self.seed = seed
        self.docs = query_population(smoke)
        self.epoch_len = len(self.docs) * OPS_PER_KEY
        self.input_digest = sha256_of(
            self.docs, *(epoch_stream(seed, epoch, len(self.docs))[0]
                         for epoch in range(2))
        )
        self.service = PlannerService()
        self.parse = PlanQuery.from_dict
        self.smoke_ops = 3 * self.epoch_len
        self.identity_samples = 4 if smoke else IDENTITY_SAMPLES
        self.served: Dict[int, str] = {}  # op -> payload
        self._order = self._first = None
        self._payloads: Dict[int, str] = {}
        self._snapshots: List[dict] = []
        self._t_first: Optional[float] = None
        self._t_epoch0: Optional[float] = None
        self.expected = {"hits": 0, "misses": 0, "stale_drops": 0}
        self._traced_from_epoch: Optional[int] = None

    # -- driving ---------------------------------------------------------
    def warmup(self) -> None:
        # One query per model on a world size the stream never uses: fills
        # the einsum-path and model-spec caches without touching a key.
        for model in dict.fromkeys(doc["model"] for doc in self.docs):
            doc = dict(self.docs[0], model=model, gpus=4)
            self.service.submit(self.parse(doc))
        self._baseline = self._stats()

    def at_boundary(self, i: int) -> bool:
        return i % self.epoch_len == 0

    def between(self, i: int) -> None:
        epoch, slot = divmod(i, self.epoch_len)
        if slot:
            return
        self._epoch_start = i
        self._snapshots.append(self._stats())
        if epoch:
            # A write beside the reads: bumps the calibration generation,
            # so every cached plan is stale on its next lookup.
            self.service.recalibrate(_CALIBRATION_SAMPLES, world_size=8)
        self._order, self._first = epoch_stream(self.seed, epoch, len(self.docs))
        self._payloads = {}

    def op(self, i: int) -> bool:
        if self._t_first is None:
            self._t_first = time.perf_counter()
        self._last_op = i
        epoch, slot = divmod(i, self.epoch_len)
        key = int(self._order[slot])
        result = self.service.submit(self.parse(self.docs[key]))
        payload = self.served[i] = result.payload
        if self._first[slot]:
            ok = result.source == "computed"
            self._payloads[key] = payload
            self.expected["misses"] += 1
            self.expected["stale_drops"] += epoch > 0
        else:
            ok = result.source == "cache" and payload == self._payloads[key]
            self.expected["hits"] += 1
        if i == self.epoch_len - 1:
            self._t_epoch0 = time.perf_counter()
        return ok

    def finish(self) -> None:
        self._final = self._stats()
        self._identical = self._identity_check()
        self.service.close()

    def _stats(self) -> dict:
        stats = self.service.stats()
        cache = stats["cache"]
        return {
            "hits": cache["hits"], "misses": cache["misses"],
            "stale_drops": cache["stale_drops"],
            "evictions": cache["evictions"],
            "computes": stats["computes"], "coalesced": stats["coalesced"],
        }

    def _identity_check(self) -> bool:
        """Sampled hit payloads == a fresh service's, at this generation."""
        hits = sorted({
            int(self._order[slot])
            for slot in range(self._last_op - self._epoch_start + 1)
            if not self._first[slot]
        })
        rng = np.random.default_rng([self.seed, self._last_op])
        sample = rng.permutation(hits)[: self.identity_samples]
        with PlannerService() as fresh:
            for key in sample:
                result = fresh.submit(self.parse(self.docs[int(key)]))
                if (result.source != "computed"
                        or result.payload != self._payloads[int(key)]):
                    return False
        return True

    # -- results ---------------------------------------------------------
    def end_to_end(self, virtual) -> Dict[str, float]:
        # The planner's "target" is a warm cache over the population:
        # time to serve the first epoch, every key's cold miss included.
        if self._t_epoch0 is None:
            return {}
        reached = virtual(self._t_epoch0) - virtual(self._t_first)
        return {"time_to_target_s": float(reached)}

    def digests(self) -> Dict[str, str]:
        return {"input": self.input_digest}

    def invalid_ops(self) -> List[int]:
        """Ops whose payload does not parse as a ``repro.plan/2`` plan."""
        def valid(payload: str) -> bool:
            try:
                doc = json.loads(payload)
                plan_from_dict(doc)
            except (ValueError, KeyError, TypeError):
                return False
            return doc.get("schema") == SCHEMA_VERSION

        invalid = {p for p in set(self.served.values()) if not valid(p)}
        return [i for i, p in self.served.items() if p in invalid]

    def checks(self) -> Dict[str, bool]:
        observed = {
            name: self._final[name] - self._baseline[name]
            for name in self.expected
        }
        checks = {
            "cache_stats_as_predicted": observed == self.expected,
            "hits_identical_to_fresh_service": self._identical,
            "first_epoch_completed": self._t_epoch0 is not None,
        }
        if self._traced_from_epoch is not None:
            # The count metrics need one epoch traced from start to end.
            checks["traced_epoch_completed"] = (
                self._traced_from_epoch + 1 < len(self._snapshots)
            )
        return checks

    # -- tracing ---------------------------------------------------------
    def install(self, rec: spans.Recorder) -> None:
        def tasks(engine, task_list):
            return len(task_list)

        service = self.service
        rec.wrap(self, "op", self.root_span)
        rec.wrap(self, "parse", "serve.query.parse")
        rec.wrap(PlanQuery, "cache_key", "serve.query.key")
        rec.wrap(service, "submit", "serve.submit")
        rec.wrap(service, "recalibrate", "serve.recalibrate")
        rec.wrap(service.cache, "get", "serve.cache.get")
        rec.wrap(service.cache, "put", "serve.cache.put")
        rec.wrap(repro.serve.service, "plan_payload", "serve.schema.encode")
        rec.wrap(repro.planner, "plan", "planner.plan")
        rec.wrap(repro.planner, "simulate_iteration", "sim.simulate")
        rec.wrap(repro.planner, "autotune_buffer_size", "sim.autotune")
        rec.wrap(repro.planner, "estimate_memory", "sim.memory")
        rec.wrap(repro.sim.autotune, "simulate_iteration", "sim.simulate")
        rec.wrap(Engine, "run", "sched.run", count=tasks)
        self._traced_from_epoch = len(self._snapshots)

    def per_layer(self, recorded: List[spans.Span]) -> Dict[str, float]:
        tallies = spans.tally_by_op(recorded)
        misses = {op: t for op, t in tallies.items() if "planner.plan" in t}
        hits = {op: t for op, t in tallies.items()
                if op >= 0 and op not in misses}

        def med(group, name, field="self_ns", scale=1.0):
            values = spans.per_op_values(group, [name], field)
            return median(values) * scale if values else None

        out = {
            "serve.query.parse_us": med(tallies, "serve.query.parse", scale=1e-3),
            "serve.query.key_us": med(tallies, "serve.query.key", scale=1e-3),
            "serve.cache.get_us": med(tallies, "serve.cache.get", scale=1e-3),
            "serve.cache.put_us": med(tallies, "serve.cache.put", scale=1e-3),
            "serve.submit.hit_self_us": med(hits, "serve.submit", scale=1e-3),
            "serve.submit.miss_self_ms": med(misses, "serve.submit", scale=1e-6),
            "serve.schema.encode_ms": med(misses, "serve.schema.encode", scale=1e-6),
            "planner.plan.self_ms": med(misses, "planner.plan", scale=1e-6),
            "sim.build.busy_ms": med(misses, "sim.simulate", scale=1e-6),
            "sim.autotune.busy_ms": med(misses, "sim.autotune", "total_ns", 1e-6),
            "sim.memory.busy_ms": med(misses, "sim.memory", scale=1e-6),
            "sched.run.busy_ms": med(misses, "sched.run", scale=1e-6),
        }
        recalibrations = [
            span.end - span.start for span in recorded
            if span.name == "serve.recalibrate"
        ]
        if recalibrations:
            out["serve.recalibrate.busy_ms"] = median(recalibrations) / 1e6
        run = [s for s in recorded if s.name == "sched.run"]
        if run:
            out["sched.tasks_per_s"] = (
                sum(s.count for s in run)
                / (sum(s.end - s.start for s in run) / 1e9)
            )
        # Counts cover the first epoch traced from start to end, so they do
        # not depend on where the time-bounded window stops.
        epoch = self._traced_from_epoch
        if epoch + 1 < len(self._snapshots):
            before, after = self._snapshots[epoch], self._snapshots[epoch + 1]
            for name in ("hits", "misses", "stale_drops", "evictions"):
                out[f"serve.cache.{name}"] = after[name] - before[name]
            for name in ("computes", "coalesced"):
                out[f"serve.service.{name}"] = after[name] - before[name]
            lookups = out["serve.cache.hits"] + out["serve.cache.misses"]
            out["serve.cache.hit_share"] = out["serve.cache.hits"] / lookups
            lo, hi = epoch * self.epoch_len, (epoch + 1) * self.epoch_len
            in_epoch = [
                t for op, t in tallies.items() if lo <= op < hi
            ]

            def total(name, field):
                return sum(
                    getattr(t[name], field) for t in in_epoch if name in t
                )

            out["planner.plan.calls"] = total("planner.plan", "calls")
            out["sim.simulate.calls"] = total("sim.simulate", "calls")
            out["sim.build.tasks"] = total("sched.run", "count")
            out["sched.run.tasks"] = total("sched.run", "count")
            out["sim.autotune.evals"] = sum(
                1 for index, span in enumerate(recorded)
                if span.name == "sim.simulate" and lo <= span.op < hi
                and spans.has_ancestor(recorded, index, "sim.autotune")
            )
        return {name: value for name, value in out.items() if value is not None}


def build(name: str, seed: int, smoke: bool):
    if name == "plan_mixed":
        return PlanWorkload(seed, smoke)
    return TrainWorkload(TRAIN_SPECS[name], seed, smoke)
