"""Per-method iteration schedules for the performance simulator.

Every :mod:`repro.sim` entry point takes one path: :meth:`BuildContext.resolve`
defaults and validates the scenario once, :meth:`BuildContext.graph` builds
one iteration's :class:`~repro.sched.TaskGraph`, :meth:`BuildContext.run`
hands it to ``Engine.run``, and the records are swept into the paper's
breakdown (``simulate_iteration`` is that path end to end).

A method is one schedule in ``_SCHEDULES`` (Fig. 4, Table II): its FF + BP
chain with any inline backward hooks, the tensor groups it fuses and its
stage chains over their bucket partition. :func:`fusion_plan` and
``ctx.graph`` read that one declaration; every stage becomes a task in
``_chained``, and ``_collective`` prices every collective as the kind
:data:`~repro.compression.wire.WIRE_GROUPS` declares for its group, over the
bytes :func:`~repro.compression.wire.step_wire` declares. Adding a method is
a schedule function and its ``_SCHEDULES`` entry.

Sweeps over buffer size, link and method (the planner, the autotuner, Fig.
9-13) re-price one timeline, so schedules start from ``_skeleton(ctx)``: the
priced FF + BP chain and its tensors in readiness order per (model, batch
size, ``SimConfig``) — the eight used last, found by model identity — which
also keeps per-method prefixes (hook timelines, wire sizes, post costs) and
what ``simulate_iteration`` priced in the current calibration generation.
Shared ``Task`` objects go out in fresh lists: a graph or breakdown is the
same from a warm memo or an empty one (``tests/test_skeleton_memo.py``).
Specs and configs are immutable values: derive variants with
``dataclasses.replace``, never by editing a field (or
``GPUSpec.efficiency``) in place.

Methods (:data:`METHODS`): S-SGD all-reduces fused raw gradients; Sign-SGD
and Top-k compress the packed vector after BP and all-gather it (§III);
Power-SGD runs its blocking P/Q pipeline after BP (Fig. 4(a)), Power-SGD*
per bucket on the DDP hook's side stream, contending with BP (Fig. 4(b));
ACP-SGD compresses in the backward hook and all-reduces fused factors (Fig.
4(c)). Fig. 9's ``SystemConfig(wfbp=False)`` holds communication and hook
compression until BP ends; ``tensor_fusion=False`` buckets each tensor alone.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from repro.comm.cost_model import LinkSpec, allgather_time, allreduce_time
from repro.comm.topology import ClusterTopology, best_allreduce_time
from repro.compression.wire import (
    ALL_REDUCE,
    FP32,
    WIRE_GROUPS,
    Collective,
    low_rank_split,
    select_count,
    step_wire,
)
from repro.models.spec import ModelSpec, TensorSpec
from repro.sched import TaskGraph
from repro.sim import gpu as gpu_cost
from repro.sim.calibration import CALIBRATION_GENERATION, LINK_10GBE, SimConfig
from repro.sim.engine import GPU_MAIN, GPU_SIDE, NIC, Engine, Task, TaskRecord
from repro.fusion import DEFAULT_BUFFER_BYTES, partition_buckets, scaled_buffer_size
from repro.sim.results import IterationBreakdown, breakdown_from_records

Buckets = Sequence[Tuple[int, int]]  # one ``partition_buckets`` result

METHODS = ("ssgd", "signsgd", "topk", "powersgd", "powersgd_star", "acpsgd")

# Extension methods with timing strategies (not part of the paper's
# evaluation): TernGrad / QSGD ride the Sign-SGD all-gather template; DGC
# rides Top-k's; Random-k — being additive under a shared seed — gets the
# full WFBP+TF treatment like ACP-SGD.
EXTENSION_METHODS = ("terngrad", "qsgd", "randomk", "dgc")
ALL_METHODS = METHODS + EXTENSION_METHODS


@dataclass(frozen=True)
class ClusterSpec:
    """Cluster-side configuration: worker count and interconnect.

    Attributes:
        world_size: number of GPUs.
        link: flat alpha-beta interconnect (the default model, calibrated
            to the paper's testbed).
        topology: optional explicit two-level topology; when set, all-reduce
            durations use the best of the flat and hierarchical schedules
            (see :mod:`repro.comm.topology`) instead of the flat link model.
    """

    world_size: int = 32
    link: LinkSpec = LINK_10GBE
    topology: Optional[ClusterTopology] = None

    def __post_init__(self) -> None:
        if self.world_size < 1:
            raise ValueError(f"world_size must be >= 1, got {self.world_size}")
        if self.topology is not None and self.topology.world_size != self.world_size:
            raise ValueError(
                f"topology world size {self.topology.world_size} != "
                f"world_size {self.world_size}"
            )

    def allreduce_cost(self, nbytes: float) -> float:
        """All-reduce wall time under this cluster's communication model."""
        if self.topology is not None:
            return best_allreduce_time(nbytes, self.topology)
        return allreduce_time(nbytes, self.world_size, self.link)


@dataclass(frozen=True)
class SystemConfig:
    """System-optimization switches (the paper's WFBP / TF study).

    ``scale_compressed_buffer`` toggles the paper's §IV-B design choice of
    deriving ACP-SGD's fusion buffer from the compression rate (25MB x
    rate); disabling it applies the raw buffer size to the compressed
    tensors — the ablation showing why the scaling matters.
    """

    wfbp: bool = True
    tensor_fusion: bool = True
    buffer_bytes: float = DEFAULT_BUFFER_BYTES
    scale_compressed_buffer: bool = True

    def __post_init__(self) -> None:
        if self.buffer_bytes < 0:
            raise ValueError(f"buffer_bytes must be >= 0, got {self.buffer_bytes}")


@dataclass(frozen=True)
class BuildContext:
    """One resolved scenario: what every ``repro.sim`` entry point runs.

    :meth:`resolve` fills the defaults and validates once; :meth:`graph`
    builds the method's task graph and :meth:`run` prices it.
    """

    method: str
    model: ModelSpec
    batch_size: int
    cluster: ClusterSpec
    system: SystemConfig
    sim: SimConfig
    rank: int
    topk_ratio: float

    @classmethod
    def resolve(
        cls,
        method: str,
        model: ModelSpec,
        cluster: Optional[ClusterSpec] = None,
        system: Optional[SystemConfig] = None,
        sim: Optional[SimConfig] = None,
        batch_size: Optional[int] = None,
        rank: int = 4,
        topk_ratio: float = 0.001,
    ) -> "BuildContext":
        """Default the optional inputs (32 x 10GbE, WFBP + TF at 25MB, the
        calibrated ``SimConfig``, the spec's paper batch size) and reject a
        non-positive batch size or an unknown method."""
        batch = batch_size if batch_size is not None else model.default_batch_size
        if batch < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch}")
        if method not in _SCHEDULES:
            raise ValueError(f"unknown method {method!r}; available: {ALL_METHODS}")
        return cls(
            method=method, model=model, batch_size=batch,
            cluster=cluster if cluster is not None else ClusterSpec(),
            system=system if system is not None else SystemConfig(),
            sim=sim if sim is not None else SimConfig(),
            rank=rank, topk_ratio=topk_ratio,
        )

    @property
    def parities(self) -> Tuple[bool, ...]:
        """``parity_p`` of each distinct step graph: ACP-SGD alternates
        P-steps and Q-steps (their factor sizes differ slightly)."""
        return (True, False) if self.method == "acpsgd" else (True,)

    def graph(self, parity_p: bool = True) -> TaskGraph:
        """One iteration's task graph (ACP-SGD: the P- or Q-step): the
        method's schedule built once, its stage chains over its fusion plan."""
        schedule, plan = _planned(self, parity_p)
        chained = (_chained(stages, dep) for stages, dep in schedule.chains(plan))
        return TaskGraph(schedule.tasks + [task for chain in chained for task in chain])

    def run(
        self, graph: TaskGraph, disciplines: Optional[Dict[str, str]] = None
    ) -> Dict[str, TaskRecord]:
        """Price ``graph`` on this scenario's GPU contention model."""
        return Engine(self.sim.contention_rate, disciplines).run(graph)


@dataclass
class _ReadyTensor:
    """A gradient tensor in BP-readiness order with its producing BP task."""

    tensor: TensorSpec
    bp_task: str
    nbytes: int


class _Skeleton:
    """The priced, buffer- and link-independent part of one (model, batch
    size, ``SimConfig``): the FF + BP chain in submission order, its tensors
    in readiness order, and per-method prefixes built on first use.

    Everything held here is shared between graphs and never mutated —
    ``ctx.graph`` copies ``tasks`` before extending it — except the table of
    priced iterations, emptied when the calibration generation moves.
    """

    def __init__(self, model: ModelSpec, batch_size: int, sim: SimConfig) -> None:
        self.model, self.batch_size, self.sim = model, batch_size, sim
        self.tasks: List[Task] = []
        prev = ""
        for idx, layer in enumerate(model.layers):
            task_id = f"ff{idx}"
            deps = (prev,) if prev else ()
            self.tasks.append(
                Task(task_id, GPU_MAIN,
                     gpu_cost.layer_forward_time(layer, batch_size, sim),
                     deps, tag="forward")
            )
            prev = task_id
        self.ready: List[_ReadyTensor] = []
        for idx, layer in reversed(list(enumerate(model.layers))):
            task_id = f"bp{idx}"
            self.tasks.append(
                Task(task_id, GPU_MAIN,
                     gpu_cost.layer_backward_time(layer, batch_size, sim),
                     (prev,), tag="backward")
            )
            prev = task_id
            for tensor in layer.params:
                self.ready.append(_ReadyTensor(tensor, task_id, tensor.nbytes))
        self.last_bp = prev
        self.sizes = [item.nbytes for item in self.ready]
        self.raw_bytes = float(sum(self.sizes))
        self._parts: Dict[tuple, object] = {}
        self._priced: Tuple[int, Dict[tuple, IterationBreakdown]] = (-1, {})

    def part(self, key: tuple, build: Callable[[], object]):
        """``build()`` once per ``key``, 16 keys at most (racing threads
        build equal values)."""
        try:
            return self._parts[key]
        except KeyError:
            if len(self._parts) >= 16:
                self._parts.clear()
            return self._parts.setdefault(key, build())

    def priced(self, key: tuple, price: Callable[[], IterationBreakdown]):
        """``price()`` once per ``key`` and calibration generation, 1 024
        keys at most, kept only if the generation did not move while it was
        priced (racing threads store equal values)."""
        generation = CALIBRATION_GENERATION.value
        stamp, results = self._priced
        if stamp != generation:  # a lost race drops entries, never mixes stamps
            results = {}
            self._priced = (generation, results)
        try:
            return results[key]
        except KeyError:
            result = price()
            if CALIBRATION_GENERATION.value == generation:
                if len(results) >= 1024:
                    results.clear()
                results.setdefault(key, result)
            return result


_SKELETON_LOCK = threading.Lock()
_SKELETONS: List[_Skeleton] = []  # eight at most, most recently used last


def _skeleton(ctx: BuildContext) -> _Skeleton:
    """The scenario's shared skeleton: found by model *identity* (a held
    entry keeps its spec alive), batch size and ``SimConfig`` equality,
    else built in place of the least recently used of eight."""
    with _SKELETON_LOCK:
        for index, entry in enumerate(_SKELETONS):
            if (entry.model is ctx.model and entry.batch_size == ctx.batch_size
                    and entry.sim == ctx.sim):
                _SKELETONS.append(_SKELETONS.pop(index))
                return entry
        del _SKELETONS[:-7]
        _SKELETONS.append(_Skeleton(ctx.model, ctx.batch_size, ctx.sim))
        return _SKELETONS[-1]


def _wire_method(ctx: BuildContext) -> str:
    """Power-SGD* sends what Power-SGD does; only its schedule differs."""
    return "powersgd" if ctx.method == "powersgd_star" else ctx.method


def _step_wire(ctx: BuildContext, skel: _Skeleton, half: int = 1):
    """The scenario's declared step (:func:`~repro.compression.wire
    .step_wire`, float32) over the skeleton's tensors in readiness order."""
    return step_wire(
        _wire_method(ctx), [item.tensor.shape for item in skel.ready],
        rank=ctx.rank, ratio=ctx.topk_ratio, half=half,
    )


def _flat_wire(ctx: BuildContext, skel: _Skeleton) -> Collective:
    """The one collective of a method compressing the fused vector
    (the all-gather methods, Random-k), once per (method, ratio)."""
    return skel.part(
        ("wire", ctx.method, ctx.topk_ratio), lambda: _step_wire(ctx, skel)[0]
    )


_LowRank = Tuple[
    Dict[int, Tuple[int, int, int]], List[int], Dict[str, Dict[int, float]]
]


def _lowrank(ctx: BuildContext, skel: _Skeleton, half: int = 1) -> _LowRank:
    """``(dims, plain, wire)``: the §IV-C split of the skeleton's tensors
    (readiness index -> ``(n, m, r)``; plain indices) and the step's
    declared bytes, by group (``plain`` / ``P`` / ``Q``) and tensor index."""
    dims, plain = low_rank_split(
        [item.tensor.shape for item in skel.ready], ctx.rank
    )
    owners = {"plain": plain, "P": list(dims), "Q": list(dims)}
    wire = {
        collective.group: dict(zip(owners[collective.group], collective.sizes))
        for collective in _step_wire(ctx, skel, half)
    }
    return dims, plain, wire


Stages = List[Tuple[str, str, float, bool]]  # (task id, resource, work, contends)


class _Schedule(NamedTuple):
    """A method's iteration: ``tasks``, its FF + BP chain with any inline hooks
    (shared, never mutated); ``fused``, each tensor group it fuses as ``(wire
    bytes per tensor, compressed?)``; and ``chains(plan)``, the ``(stages,
    dep)`` after them given a bucket partition per fused group."""

    tasks: List[Task]
    fused: Tuple[Tuple[Sequence[float], bool], ...]
    chains: Callable[[Tuple[Buckets, ...]], Iterable[Tuple[Stages, str]]]


def _collective(ctx: BuildContext, group: str, nbytes: float) -> float:
    """Seconds of one collective of the wire's ``group`` carrying ``nbytes``
    per rank, as the kind ``WIRE_GROUPS`` declares: a ring all-reduce under
    the cluster's model, or an all-gather on its link times the penalty."""
    cluster = ctx.cluster
    kinds = {name: kind for name, kind, _ in WIRE_GROUPS[_wire_method(ctx)]}
    if kinds[group] == ALL_REDUCE:
        return cluster.allreduce_cost(nbytes)
    world, link = cluster.world_size, cluster.link
    return ctx.sim.allgather_penalty * allgather_time(nbytes, world, link)


def _chained(stages: Stages, dep: str) -> List[Task]:
    """``(task_id, resource, work, contends)`` stages as a linear chain
    hanging off ``dep``; NIC stages are communication, the rest compression."""
    tasks: List[Task] = []
    for task_id, resource, work, contends in stages:
        tag = "comm" if resource == NIC else "compression"
        tasks.append(Task(task_id, resource, work, (dep,), tag=tag, contends=contends))
        dep = task_id
    return tasks


def _bucketed(
    ctx: BuildContext, buckets: Buckets, gates: Sequence[str],
    stages: Callable[[int, int, int], Stages], final: Optional[str] = None,
) -> List[Tuple[Stages, str]]:
    """A chain ``stages(b_idx, start, end)`` per bucket, hanging off the gate
    of its last tensor (WFBP) or else off ``final`` (default: the last gate)."""
    wfbp = ctx.system.wfbp
    return [
        (stages(b_idx, start, end), gates[end - 1] if wfbp else final or gates[-1])
        for b_idx, (start, end) in enumerate(buckets)
    ]


def _raw_buckets(
    ctx: BuildContext, skel: _Skeleton, prefix: str, group: str,
    ready: Sequence[_ReadyTensor], buckets: Buckets,
) -> List[Tuple[Stages, str]]:
    """Buckets of uncompressed tensors ``ready``: one all-reduce each, the
    flat-buffer copy folded in (~0.1ms GPU memcpy per 25MB, negligible
    against alpha), after its last tensor's BP task or, without WFBP, BP."""
    def stages(b_idx: int, start: int, end: int) -> Stages:
        nbytes = float(sum(item.nbytes for item in ready[start:end]))
        work = _collective(ctx, group, nbytes) + gpu_cost.pack_copy_time(nbytes, ctx.sim)
        return [(f"{prefix}_comm{b_idx}", NIC, work, True)]
    gates = [item.bp_task for item in ready]
    return _bucketed(ctx, buckets, gates, stages, skel.last_bp)


def _hook_timeline(
    skel: _Skeleton, wfbp: bool, prefix: str,
    hooked: Sequence[_ReadyTensor], compress_work: Sequence[float],
) -> Tuple[List[Task], List[str]]:
    """The chain with an additive compressor's inline backward hooks
    (Fig. 4(c)): each ``hooked`` tensor is compressed on the main stream
    right after the BP task that produced it (without WFBP: after the full
    BP). Returns ``(tasks, hook ids)``."""
    hooks = [
        Task(f"{prefix}_compress{idx}", GPU_MAIN, work,
             (item.bp_task if wfbp else skel.last_bp,), tag="compression")
        for idx, (item, work) in enumerate(zip(hooked, compress_work))
    ]
    if wfbp:
        by_bp: Dict[str, List[Task]] = {}
        for item, hook in zip(hooked, hooks):
            by_bp.setdefault(item.bp_task, []).append(hook)
        tasks: List[Task] = []
        for task in skel.tasks:
            tasks.append(task)
            tasks.extend(by_bp.get(task.task_id, ()))
    else:
        tasks = skel.tasks + hooks
    return tasks, [hook.task_id for hook in hooks]


# Method schedules, in ``_SCHEDULES``: ``(ctx, skel, parity_p) -> _Schedule``.
# Only ACP-SGD's depends on the step parity.


def _ssgd(ctx: BuildContext, skel: _Skeleton, parity_p: bool) -> _Schedule:
    """S-SGD: one all-reduce per fused bucket of raw gradients."""
    return _Schedule(skel.tasks, ((skel.sizes, False),), lambda plan: _raw_buckets(
        ctx, skel, "grad", "raw", skel.ready, plan[0]
    ))


# (compress, decompress) in multiples of Sign-SGD's seconds: TernGrad clips,
# rounds and packs (~1.5x); QSGD adds a norm pass and stochastic rounding (~2x).
_SIGN_FAMILY = {"signsgd": (1.0, 1.0), "terngrad": (1.5, 2.0), "qsgd": (2.0, 4.0)}


def _allgather(ctx: BuildContext, skel: _Skeleton, parity_p: bool) -> _Schedule:
    """All-gather methods: post-BP packed compress -> all-gather -> decode,
    the paper's §III-A setup for Sign-SGD and Top-k, which TernGrad, QSGD and
    DGC (extensions) ride with their own payloads and compression costs.
    WFBP/TF switches do not change these graphs."""
    method, world, sim = ctx.method, ctx.cluster.world_size, ctx.sim
    total_bytes = skel.raw_bytes
    if method in _SIGN_FAMILY:
        compress, decompress = _SIGN_FAMILY[method]
        compress *= gpu_cost.sign_compress_time(total_bytes, sim)
        decompress *= gpu_cost.sign_decompress_time(total_bytes, world, sim)
    else:  # topk / dgc
        k = select_count(ctx.topk_ratio, total_bytes / FP32)
        compress = gpu_cost.topk_compress_time(total_bytes, sim)
        if method == "dgc":
            # Selection runs on the velocity: two accumulator update passes.
            compress += sim.memory_pass_time(4.0 * total_bytes)
        decompress = gpu_cost.topk_decompress_time(k, world, sim)
    wire = _flat_wire(ctx, skel)
    return _Schedule(skel.tasks, (), lambda plan: [([
        ("compress", GPU_MAIN, compress, True),
        ("gather", NIC, _collective(ctx, wire.group, wire.nbytes), True),
        ("decompress", GPU_MAIN, decompress, True),
    ], skel.last_bp)])


def _randomk(ctx: BuildContext, skel: _Skeleton, parity_p: bool) -> _Schedule:
    """Random-k with a shared selection seed (extension): its sparse values
    are *additive* and non-blocking, the two §III-C properties ACP-SGD is
    built around, so it gets the full WFBP + scaled tensor-fusion treatment:
    inline per-tensor gather on the main stream, fused ring all-reduce of the
    selected values, scatter on arrival."""
    sim, wfbp = ctx.sim, ctx.system.wfbp
    nbytes = skel.sizes  # every tensor is hooked
    tasks, hook_ids = skel.part(("rk", wfbp), lambda: _hook_timeline(
        skel, wfbp, "rk", skel.ready,
        # EF add + masked gather: two streaming passes over the tensor.
        [sim.memory_pass_time(2.0 * size) for size in nbytes],
    ))
    sizes = _flat_wire(ctx, skel).sizes
    return _Schedule(tasks, ((sizes, True),), lambda plan: _bucketed(
        ctx, plan[0], hook_ids, lambda b_idx, start, end: [
            (f"rk_comm{b_idx}", NIC,
             _collective(ctx, "selection", float(sum(sizes[start:end]))), True),
            (f"rk_scatter{b_idx}", GPU_MAIN,
             sim.memory_pass_time(float(sum(nbytes[start:end]))), True),
        ],
    ))


def _powersgd_costs(
    ctx: BuildContext, lowrank: _LowRank, matrices: Sequence[int]
):
    """Kernel seconds ``(ef, project, ortho, reconstruct)`` and declared
    factor bytes ``(P, Q)`` summed over a group of factored tensors."""
    sim = ctx.sim
    all_dims, _, wire = lowrank
    dims = [all_dims[index] for index in matrices]
    return (
        sum(gpu_cost.error_feedback_time(n, m, sim) for n, m, _ in dims),
        sum(gpu_cost.lowrank_project_time(n, m, r, sim) for n, m, r in dims),
        sum(gpu_cost.orthogonalize_time(n, r, sim) for n, _, r in dims),
        sum(gpu_cost.reconstruct_time(n, m, r, sim) for n, m, r in dims),
        sum(wire["P"][index] for index in matrices),
        sum(wire["Q"][index] for index in matrices),
    )


def _powersgd_stages(
    ctx: BuildContext, prefix: str, lowrank: _LowRank, matrices: Sequence[int],
    plain_bytes: float, stream: str,
) -> Stages:
    """One Power-SGD group: compress P -> AR -> ortho -> Q -> AR -> reconstruct,
    its ``plain_bytes`` riding the P all-reduce as in the PowerSGD DDP hook."""
    ef, project, ortho, reconstruct, p_bytes, q_bytes = _powersgd_costs(
        ctx, lowrank, matrices
    )
    # QR is launch-latency bound and does not contend for SMs; the EF pass,
    # the projections and the reconstruction are FLOP-heavy and do. Without
    # TF, Power-SGD*'s per-tensor hooks launch a storm of tiny kernels that
    # stalls the main stream: their orthogonalizations contend too.
    ortho_contends = ctx.sim.qr_contends if ctx.system.tensor_fusion else True
    return [
        (f"{prefix}_compress_p", stream, ef + project, True),
        (f"{prefix}_comm_p", NIC, _collective(ctx, "P", p_bytes + plain_bytes), True),
        (f"{prefix}_ortho", stream, ortho, ortho_contends),
        (f"{prefix}_project_q", stream, project, True),
        (f"{prefix}_comm_q", NIC, _collective(ctx, "Q", q_bytes), True),
        (f"{prefix}_reconstruct", stream, reconstruct, True),
    ]


def _powersgd(ctx: BuildContext, skel: _Skeleton, parity_p: bool) -> _Schedule:
    """Original Power-SGD: packed after BP on the main stream, batched by
    matrix shape (Vogels' reference implementation: one batched GEMM/QR and
    one collective per shape group per factor)."""
    lowrank = skel.part(("psgd", ctx.rank), lambda: _lowrank(ctx, skel))
    dims, plain, wire = lowrank

    def chains(plan):
        if not ctx.system.tensor_fusion:
            # Naive variant: per-tensor collectives — same payload split into
            # one P and one Q all-reduce per matrix (and one per plain tensor),
            # charging the startup cost each time.
            for idx, index in enumerate(dims):
                costs = _powersgd_costs(ctx, lowrank, [index])
                ef, project, ortho, reconstruct, p_bytes, q_bytes = costs
                yield [
                    (f"psgdn_compress_p{idx}", GPU_MAIN, ef + project, True),
                    (f"psgdn_comm_p{idx}", NIC, _collective(ctx, "P", p_bytes), True),
                    (f"psgdn_ortho_q{idx}", GPU_MAIN, ortho + project, True),
                    (f"psgdn_comm_q{idx}", NIC, _collective(ctx, "Q", q_bytes), True),
                    (f"psgdn_reconstruct{idx}", GPU_MAIN, reconstruct, True),
                ], skel.last_bp
            for idx, index in enumerate(plain):
                work = _collective(ctx, "plain", wire["plain"][index])
                yield [(f"psgdn_plain_comm{idx}", NIC, work, True)], skel.last_bp
            return
        plain_bytes = float(sum(wire.get("plain", {}).values()))
        groups: Dict[Tuple[int, int], List[int]] = {}
        for index, (n, m, _) in dims.items():
            groups.setdefault((n, m), []).append(index)
        for g_idx, group in enumerate(groups.values()):
            yield _powersgd_stages(
                ctx, f"psgd{g_idx}", lowrank, group,
                plain_bytes if g_idx == 0 else 0.0, GPU_MAIN,
            ), skel.last_bp

    return _Schedule(skel.tasks, (), chains)


def _powersgd_star(ctx: BuildContext, skel: _Skeleton, parity_p: bool) -> _Schedule:
    """Power-SGD* (DDP hook) over buckets of raw gradient bytes: the hook's
    stages queue on the side stream in completion order — a bucket's ortho/Q
    callback runs when its P all-reduce resolves, typically before the next
    bucket is ready — so per-bucket interleaved FIFO models the pipeline."""
    stream = GPU_SIDE if ctx.system.wfbp else GPU_MAIN
    lowrank = skel.part(("psgd", ctx.rank), lambda: _lowrank(ctx, skel))
    dims, plain_sizes = lowrank[0], lowrank[2].get("plain", {})

    def stages(b_idx: int, start: int, end: int) -> Stages:
        members = range(start, end)
        return _powersgd_stages(
            ctx, f"psgd{b_idx}", lowrank, [i for i in members if i in dims],
            float(sum(plain_sizes.get(i, 0) for i in members)), stream,
        )

    return _Schedule(skel.tasks, ((skel.sizes, False),), lambda plan: _bucketed(
        ctx, plan[0], [item.bp_task for item in skel.ready], stages, skel.last_bp
    ))


def _acpsgd(ctx: BuildContext, skel: _Skeleton, parity_p: bool) -> _Schedule:
    """ACP-SGD: inline hook compression, one all-reduce per fused bucket of
    factors, then its reconstruction (P Q^T); plain tensors fuse uncompressed."""
    sim, wfbp = ctx.sim, ctx.system.wfbp

    def prefix():
        dims, plain, wire = _lowrank(ctx, skel, 1 if parity_p else 2)
        matrices = [skel.ready[index] for index in dims]
        timeline = _hook_timeline(skel, wfbp, "acp", matrices, [
            gpu_cost.error_feedback_time(n, m, sim)
            + gpu_cost.orthogonalize_time(m if parity_p else n, r, sim)
            + gpu_cost.lowrank_project_time(n, m, r, sim)
            for n, m, r in dims.values()
        ])
        factor_bytes = list(wire.get("P" if parity_p else "Q", {}).values())
        reconstruct = [
            gpu_cost.reconstruct_time(n, m, r, sim) for n, m, r in dims.values()
        ]
        return timeline, factor_bytes, reconstruct, [skel.ready[i] for i in plain]

    (tasks, hook_ids), factor_bytes, reconstruct, plain = skel.part(
        ("acp", ctx.rank, parity_p, wfbp), prefix
    )
    group, plain_bytes = "P" if parity_p else "Q", [item.nbytes for item in plain]

    def chains(plan):
        factors, plain_buckets = plan
        return _bucketed(ctx, factors, hook_ids, lambda b_idx, start, end: [
            (f"acp_comm{b_idx}", NIC,
             _collective(ctx, group, float(sum(factor_bytes[start:end]))), True),
            (f"acp_reconstruct{b_idx}", GPU_MAIN, sum(reconstruct[start:end]), True),
        ]) + _raw_buckets(ctx, skel, "acp_plain", "plain", plain, plain_buckets)

    return _Schedule(tasks, ((factor_bytes, True), (plain_bytes, False)), chains)


_SCHEDULES: Dict[str, Callable[[BuildContext, _Skeleton, bool], _Schedule]] = {
    "ssgd": _ssgd, "powersgd": _powersgd, "powersgd_star": _powersgd_star,
    "acpsgd": _acpsgd, "randomk": _randomk,
    **dict.fromkeys(("signsgd", "topk", "terngrad", "qsgd", "dgc"), _allgather),
}


def _planned(ctx: BuildContext, parity_p: bool):
    """``(schedule, fusion_plan)`` of the scenario: the one reader of
    ``buffer_bytes`` and of the §IV-B scaling."""
    system, skel = ctx.system, _skeleton(ctx)
    schedule = _SCHEDULES[ctx.method](ctx, skel, parity_p)
    plan = []
    for sizes, compressed in schedule.fused:
        buffer = system.buffer_bytes if system.tensor_fusion else 0.0
        if compressed and system.tensor_fusion and system.scale_compressed_buffer:
            # §IV-B: compressed payloads fuse under the buffer x their rate.
            buffer = scaled_buffer_size(buffer, sum(sizes), skel.raw_bytes)
        plan.append(tuple(partition_buckets(sizes, buffer)))
    return schedule, tuple(plan)


def fusion_plan(ctx: BuildContext, parity_p: bool = True) -> Tuple[Buckets, ...]:
    """What ``ctx.graph(parity_p)`` takes from the fusion buffer: a bucket
    partition per tensor group the method's schedule fuses (none for the
    all-gather methods and packed Power-SGD). Nothing else reads the buffer
    size, so scenarios differing in ``buffer_bytes`` alone with equal plans
    build equal task lists — the autotuner prices each plan once."""
    return _planned(ctx, parity_p)[1]


def build_iteration_graph(
    method: str,
    model: ModelSpec,
    cluster: Optional[ClusterSpec] = None,
    system: Optional[SystemConfig] = None,
    sim: Optional[SimConfig] = None,
    batch_size: Optional[int] = None,
    rank: int = 4,
    topk_ratio: float = 0.001,
    acp_parity_p: bool = True,
) -> TaskGraph:
    """Build (without running) one iteration's task graph for a method.

    Builds the method's schedule through
    :meth:`BuildContext.graph`. For ACP-SGD, ``acp_parity_p`` picks
    the P-step (odd) or Q-step (even) graph.
    """
    return BuildContext.resolve(
        method, model, cluster, system, sim, batch_size, rank, topk_ratio
    ).graph(acp_parity_p)


def simulate_iteration_records(
    method: str,
    model: ModelSpec,
    cluster: Optional[ClusterSpec] = None,
    system: Optional[SystemConfig] = None,
    sim: Optional[SimConfig] = None,
    batch_size: Optional[int] = None,
    rank: int = 4,
    topk_ratio: float = 0.001,
    acp_parity_p: bool = True,
):
    """Simulate one iteration and return the raw per-task records.

    The records feed :func:`repro.sim.trace.to_chrome_trace` for timeline
    visualization. For ACP-SGD this runs a single parity (default: P-step).
    """
    ctx = BuildContext.resolve(
        method, model, cluster, system, sim, batch_size, rank, topk_ratio
    )
    return ctx.run(ctx.graph(acp_parity_p))


def simulate_iteration(
    method: str,
    model: ModelSpec,
    cluster: Optional[ClusterSpec] = None,
    system: Optional[SystemConfig] = None,
    sim: Optional[SimConfig] = None,
    batch_size: Optional[int] = None,
    rank: int = 4,
    topk_ratio: float = 0.001,
) -> IterationBreakdown:
    """Simulate one training iteration and return its timing breakdown.

    Args:
        method: one of :data:`ALL_METHODS` (the paper's :data:`METHODS`
            and the :data:`EXTENSION_METHODS`).
        model: shape-level model spec.
        cluster: worker count + link (default 32 x 10GbE, the paper's).
        system: WFBP / TF switches (default both on, 25MB buffer).
        sim: calibration constants.
        batch_size: per-GPU batch (default: the spec's paper batch size).
        rank: Power-SGD / ACP-SGD rank.
        topk_ratio: Top-k keep fraction (paper: 0.001).

    For ACP-SGD the result averages the P-step and Q-step parities (their
    factor sizes differ slightly), priced once per calibration generation.
    """
    ctx = BuildContext.resolve(
        method, model, cluster, system, sim, batch_size, rank, topk_ratio
    )
    return _skeleton(ctx).priced(
        (ctx.method, ctx.cluster, ctx.system, ctx.rank, ctx.topk_ratio),
        lambda: IterationBreakdown.mean([
            breakdown_from_records(ctx.run(ctx.graph(parity_p)))
            for parity_p in ctx.parities
        ]),
    )
