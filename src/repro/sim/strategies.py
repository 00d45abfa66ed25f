"""Per-method iteration task graphs for the performance simulator.

Every :mod:`repro.sim` entry point takes one path: :meth:`BuildContext.resolve`
defaults and validates the scenario once, :meth:`BuildContext.graph` builds
one iteration's :class:`~repro.sched.TaskGraph`, :meth:`BuildContext.run`
hands it to ``Engine.run``, and the records are swept into the paper's
breakdown (``simulate_iteration`` is that path end to end). What a method
sends is its wire in :func:`repro.compression.wire.step_wire`, declared once
for the trainer and the simulator alike; adding a method here is a ``(ctx,
parity_p, *plan)`` builder in ``_BUILDERS`` — its compute costs and its
schedule — plus, if it fuses, its groups in ``fusion_plan``.

Sweeps over buffer size, link and method (the planner, the autotuner, the
paper's Fig. 9-13) re-price one iteration timeline, so the part of a graph
that depends on none of them is built once: builders start from
``_skeleton(ctx)`` — the priced FF + BP chain and its tensors in readiness
order per (model, batch size, ``SimConfig``), plus per-method prefixes
(ACP-SGD / Random-k hook timelines, declared wire sizes, post costs) per
(rank, parity, ``wfbp``) — and only price the collectives of the scenario's
``fusion_plan``. The memo holds the eight skeletons used last, of any
models (model identity, ``SimConfig`` equality), each with what
``simulate_iteration`` priced on it in the current calibration generation,
and hands out shared ``Task`` objects in fresh lists; a graph or breakdown
is the same whether the memo was warm or empty
(``tests/test_skeleton_memo.py``). Specs and configs are immutable values:
derive variants with ``dataclasses.replace``, never by editing a field (or
``GPUSpec.efficiency``) in place.

Methods (METHODS):

- ``ssgd`` — S-SGD: raw gradients, ring all-reduce.
- ``signsgd`` — Sign-SGD w/ majority vote: post-BP packed compression +
  all-gather (the paper's §III characterization setup).
- ``topk`` — Top-k SGD w/ multi-sampling: post-BP packed compression +
  all-gather.
- ``powersgd`` — original Power-SGD: post-BP packed compress P -> all-reduce
  -> orthogonalize/compute Q -> all-reduce -> reconstruct (Fig. 4(a)).
- ``powersgd_star`` — Power-SGD on the DDP communication hook: per-bucket
  compression on a side stream overlapping BP (contending for the GPU,
  Fig. 4(b)).
- ``acpsgd`` — ACP-SGD: inline per-tensor compression in the backward hook
  (serialized with BP on the main stream), single non-blocking all-reduce
  per bucket, compressed-buffer tensor fusion (Fig. 4(c)).

System variants (Fig. 9): ``SystemConfig(wfbp=..., tensor_fusion=...)``.
With ``wfbp=False`` communication (and hook compression) waits for BP to
finish; with ``tensor_fusion=False`` every tensor is its own bucket.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.comm.cost_model import LinkSpec, allgather_time, allreduce_time
from repro.comm.topology import ClusterTopology, best_allreduce_time
from repro.compression.wire import (
    FP32,
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
        if method not in _BUILDERS:
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
        """One iteration's task graph (ACP-SGD: the P- or Q-step)."""
        plan = fusion_plan(self, parity_p)
        return TaskGraph(_BUILDERS[self.method](self, parity_p, *plan))

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
    builders copy ``tasks`` before extending it — except the table of
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


def _step_wire(ctx: BuildContext, skel: _Skeleton, half: int = 1):
    """The scenario's declared step (:func:`~repro.compression.wire
    .step_wire`, float32) over the skeleton's tensors in readiness order.
    Power-SGD* sends what Power-SGD does; only its schedule differs."""
    return step_wire(
        "powersgd" if ctx.method == "powersgd_star" else ctx.method,
        [item.tensor.shape for item in skel.ready],
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


def _bucket_comm_tasks(
    ctx: BuildContext, buckets: Buckets, ready: Sequence[_ReadyTensor], prefix: str
) -> List[Task]:
    """Fusion ``buckets`` of raw gradients -> all-reduce tasks.

    Each bucket becomes one NIC collective, dependent on the producing
    BP task of its *last* tensor (WFBP) or on the end of BP.
    The flat-buffer copy is folded into the collective duration (it is a
    ~0.1ms GPU memcpy per 25MB bucket, negligible against alpha).
    """
    sizes, last_bp = [item.nbytes for item in ready], _skeleton(ctx).last_bp
    tasks: List[Task] = []
    for b_idx, (start, end) in enumerate(buckets):
        bucket_bytes = float(sum(sizes[start:end]))
        dep = ready[end - 1].bp_task if ctx.system.wfbp else last_bp
        duration = ctx.cluster.allreduce_cost(bucket_bytes)
        duration += gpu_cost.pack_copy_time(bucket_bytes, ctx.sim)
        tasks.append(Task(f"{prefix}_comm{b_idx}", NIC, duration, (dep,), tag="comm"))
    return tasks


def _chained(stages: Sequence[Tuple[str, str, float, bool]], dep: str) -> List[Task]:
    """``(task_id, resource, work, contends)`` stages as a linear chain
    hanging off ``dep``; NIC stages are communication, the rest compression."""
    tasks: List[Task] = []
    for task_id, resource, work, contends in stages:
        tag = "comm" if resource == NIC else "compression"
        tasks.append(Task(task_id, resource, work, (dep,), tag=tag, contends=contends))
        dep = task_id
    return tasks


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


def _hooked_tasks(
    ctx: BuildContext,
    buckets: Buckets,
    prefix: str,
    timeline: Tuple[List[Task], List[str]],
    sizes: Sequence[float],
    post_name: str,
    post_work: Callable[[int, int], float],
) -> List[Task]:
    """A shared :func:`_hook_timeline` plus this scenario's collectives.

    The hooks' payloads (``sizes``, wire bytes per hooked tensor) are fused
    by ``buckets`` into one non-blocking all-reduce each; it waits for its
    last member's compression (without WFBP: for all of it) and is followed by the
    bucket's ``post_name`` task (reconstruct / scatter) costing
    ``post_work(start, end)``.
    """
    system = ctx.system
    tasks, hook_ids = list(timeline[0]), timeline[1]
    for b_idx, (start, end) in enumerate(buckets):
        comm_id = f"{prefix}_comm{b_idx}"
        duration = ctx.cluster.allreduce_cost(float(sum(sizes[start:end])))
        gate = hook_ids[end - 1 if system.wfbp else -1]
        tasks.append(Task(comm_id, NIC, duration, (gate,), tag="comm"))
        tasks.append(Task(f"{prefix}_{post_name}{b_idx}", GPU_MAIN,
                          post_work(start, end), (comm_id,), tag="compression"))
    return tasks


# Method builders: ``(ctx, parity_p, *plan) -> tasks`` in submission order,
# ``plan`` being the method's :func:`fusion_plan`, one ``Buckets`` per tensor
# group it fuses. Only ACP-SGD's graph depends on the step parity.


def _ssgd_tasks(ctx: BuildContext, parity_p: bool, buckets: Buckets) -> List[Task]:
    skel = _skeleton(ctx)
    return skel.tasks + _bucket_comm_tasks(ctx, buckets, skel.ready, "grad")


def _allgather_method_tasks(ctx: BuildContext, parity_p: bool) -> List[Task]:
    """All-gather methods: post-BP packed compress -> all-gather -> decode.

    Sign-SGD and Top-k follow the paper's §III-A characterization (packed
    after BP); TernGrad, QSGD and DGC (extensions) ride the same template
    with their own declared payloads and compression costs. WFBP/TF
    switches do not change these graphs.
    """
    method, cluster, sim = ctx.method, ctx.cluster, ctx.sim
    skel = _skeleton(ctx)
    total_bytes = skel.raw_bytes
    if method == "signsgd":
        compress = gpu_cost.sign_compress_time(total_bytes, sim)
        decompress = gpu_cost.sign_decompress_time(total_bytes, cluster.world_size, sim)
    elif method == "terngrad":
        # Packing cost ~1.5x sign's (clip + round + pack).
        compress = 1.5 * gpu_cost.sign_compress_time(total_bytes, sim)
        decompress = 2.0 * gpu_cost.sign_decompress_time(
            total_bytes, cluster.world_size, sim
        )
    elif method == "qsgd":
        # Norm pass + stochastic rounding ~2x sign.
        compress = 2.0 * gpu_cost.sign_compress_time(total_bytes, sim)
        decompress = 4.0 * gpu_cost.sign_decompress_time(
            total_bytes, cluster.world_size, sim
        )
    else:  # topk / dgc
        k = select_count(ctx.topk_ratio, total_bytes / FP32)
        compress = gpu_cost.topk_compress_time(total_bytes, sim)
        if method == "dgc":
            # Selection runs on the velocity: two accumulator update passes.
            compress += sim.memory_pass_time(4.0 * total_bytes)
        decompress = gpu_cost.topk_decompress_time(k, cluster.world_size, sim)
    gather = sim.allgather_penalty * allgather_time(
        _flat_wire(ctx, skel).nbytes, cluster.world_size, cluster.link
    )
    return skel.tasks + _chained([
        ("compress", GPU_MAIN, compress, True),
        ("gather", NIC, gather, True),
        ("decompress", GPU_MAIN, decompress, True),
    ], skel.last_bp)


def _randomk_tasks(ctx: BuildContext, parity_p: bool, buckets: Buckets) -> List[Task]:
    """Random-k with a shared selection seed (extension).

    Because all workers select identical coordinates, the sparse values are
    *additive* and non-blocking — Random-k enjoys exactly the two §III-C
    properties ACP-SGD is built around, so it gets the full WFBP + scaled
    tensor-fusion treatment: inline per-tensor gather on the main stream,
    fused ring all-reduce of the selected values, scatter on arrival.
    """
    skel, sim, wfbp = _skeleton(ctx), ctx.sim, ctx.system.wfbp
    nbytes = skel.sizes  # every tensor is hooked
    timeline = skel.part(("rk", wfbp), lambda: _hook_timeline(
        skel, wfbp, "rk", skel.ready,
        # EF add + masked gather: two streaming passes over the tensor.
        [sim.memory_pass_time(2.0 * size) for size in nbytes],
    ))
    return _hooked_tasks(
        ctx, buckets, "rk", timeline, _flat_wire(ctx, skel).sizes,
        post_name="scatter",
        post_work=lambda start, end: sim.memory_pass_time(
            float(sum(nbytes[start:end]))
        ),
    )


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


def _powersgd_bucket_tasks(
    ctx: BuildContext, bucket_idx: int, lowrank: _LowRank, matrices: Sequence[int],
    plain_bytes: float, dep: str, stream: str, ortho_contends: bool,
) -> List[Task]:
    """One Power-SGD bucket: compress P -> AR -> ortho -> Q -> AR -> reconstruct.

    ``plain_bytes`` (uncompressed tensors of the bucket) ride the P
    all-reduce, as in the PowerSGD DDP hook.
    """
    ef, project, ortho, reconstruct, p_bytes, q_bytes = _powersgd_costs(
        ctx, lowrank, matrices
    )
    allreduce = ctx.cluster.allreduce_cost
    prefix = f"psgd{bucket_idx}"
    # QR is launch-latency bound and does not contend for SMs; the EF pass,
    # the projections and the reconstruction are FLOP-heavy and do.
    return _chained([
        (f"{prefix}_compress_p", stream, ef + project, True),
        (f"{prefix}_comm_p", NIC, allreduce(p_bytes + plain_bytes), True),
        (f"{prefix}_ortho", stream, ortho, ortho_contends),
        (f"{prefix}_project_q", stream, project, True),
        (f"{prefix}_comm_q", NIC, allreduce(q_bytes), True),
        (f"{prefix}_reconstruct", stream, reconstruct, True),
    ], dep)


def _powersgd_tasks(ctx: BuildContext, parity_p: bool) -> List[Task]:
    """Original Power-SGD: packed after BP on the main stream, batched by
    matrix shape (Vogels' reference implementation batches same-shape
    matrices into one batched GEMM/QR and one collective per shape group
    per factor)."""
    skel = _skeleton(ctx)
    tasks, last_bp = list(skel.tasks), skel.last_bp
    lowrank = skel.part(("psgd", ctx.rank), lambda: _lowrank(ctx, skel))
    dims, plain, wire = lowrank
    if not ctx.system.tensor_fusion:
        # Naive variant: per-tensor collectives — same payload split into
        # one P and one Q all-reduce per matrix (and one per plain tensor),
        # charging the startup cost each time.
        allreduce = ctx.cluster.allreduce_cost
        for idx, index in enumerate(dims):
            ef, project, ortho, reconstruct, p_bytes, q_bytes = _powersgd_costs(
                ctx, lowrank, [index]
            )
            tasks.extend(_chained([
                (f"psgdn_compress_p{idx}", GPU_MAIN, ef + project, True),
                (f"psgdn_comm_p{idx}", NIC, allreduce(p_bytes), True),
                (f"psgdn_ortho_q{idx}", GPU_MAIN, ortho + project, True),
                (f"psgdn_comm_q{idx}", NIC, allreduce(q_bytes), True),
                (f"psgdn_reconstruct{idx}", GPU_MAIN, reconstruct, True),
            ], last_bp))
        tasks.extend(
            Task(f"psgdn_plain_comm{idx}", NIC, allreduce(wire["plain"][index]),
                 (last_bp,), tag="comm")
            for idx, index in enumerate(plain)
        )
        return tasks
    plain_bytes = float(sum(wire.get("plain", {}).values()))
    groups: Dict[Tuple[int, int], List[int]] = {}
    for index, (n, m, _) in dims.items():
        groups.setdefault((n, m), []).append(index)
    for g_idx, group in enumerate(groups.values()):
        tasks.extend(
            _powersgd_bucket_tasks(
                ctx, g_idx, lowrank, group, plain_bytes if g_idx == 0 else 0.0,
                last_bp, GPU_MAIN, ctx.sim.qr_contends,
            )
        )
    return tasks


def _powersgd_star_tasks(
    ctx: BuildContext, parity_p: bool, buckets: Buckets
) -> List[Task]:
    """Power-SGD* (DDP hook): buckets of raw gradient bytes in readiness order.

    The hook's stages queue on the side stream in completion order — a
    bucket's orthogonalize/Q callback runs when its P all-reduce future
    resolves, typically before the next bucket's gradients are ready — so
    per-bucket interleaved FIFO order models the real pipeline.
    """
    system, skel = ctx.system, _skeleton(ctx)
    tasks, ready, last_bp = list(skel.tasks), skel.ready, skel.last_bp
    stream = GPU_SIDE if system.wfbp else GPU_MAIN
    # Fine-grained (per-tensor, no TF) hooks launch a storm of tiny kernels
    # that stalls the main stream: their orthogonalizations contend too.
    ortho_contends = ctx.sim.qr_contends if system.tensor_fusion else True
    lowrank = skel.part(("psgd", ctx.rank), lambda: _lowrank(ctx, skel))
    dims, plain_sizes = lowrank[0], lowrank[2].get("plain", {})
    for b_idx, (start, end) in enumerate(buckets):
        members = range(start, end)
        matrices = [index for index in members if index in dims]
        plain_bytes = float(sum(plain_sizes.get(index, 0) for index in members))
        dep = ready[end - 1].bp_task if system.wfbp else last_bp
        tasks.extend(
            _powersgd_bucket_tasks(
                ctx, b_idx, lowrank, matrices, plain_bytes, dep, stream,
                ortho_contends,
            )
        )
    return tasks


def _acpsgd_prefix(ctx: BuildContext, skel: _Skeleton, parity_p: bool):
    """ACP-SGD's buffer-independent part: ``(hook timeline, factor wire
    bytes, reconstruct seconds, plain tensors)``."""
    sim, rank, wfbp = ctx.sim, ctx.rank, ctx.system.wfbp

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

    return skel.part(("acp", rank, parity_p, wfbp), prefix)


def _acpsgd_tasks(
    ctx: BuildContext, parity_p: bool, buckets: Buckets, plain_buckets: Buckets
) -> List[Task]:
    """ACP-SGD: inline hook compression, one all-reduce per fused bucket."""
    skel = _skeleton(ctx)
    timeline, factor_bytes, reconstruct, plain = _acpsgd_prefix(ctx, skel, parity_p)
    tasks = _hooked_tasks(
        ctx, buckets, "acp", timeline, factor_bytes,
        # Reconstruction (P Q^T) per bucket once its factor is aggregated.
        post_name="reconstruct",
        post_work=lambda start, end: sum(reconstruct[start:end]),
    )
    # Plain (vector) tensors: fused uncompressed all-reduce.
    return tasks + _bucket_comm_tasks(ctx, plain_buckets, plain, "acp_plain")


_BUILDERS: Dict[str, Callable[..., List[Task]]] = {
    "ssgd": _ssgd_tasks,
    "powersgd": _powersgd_tasks,
    "powersgd_star": _powersgd_star_tasks,
    "acpsgd": _acpsgd_tasks,
    "randomk": _randomk_tasks,
    **dict.fromkeys(
        ("signsgd", "topk", "terngrad", "qsgd", "dgc"), _allgather_method_tasks
    ),
}


def fusion_plan(ctx: BuildContext, parity_p: bool = True) -> Tuple[Buckets, ...]:
    """What ``ctx.graph(parity_p)`` takes from the fusion buffer: a bucket
    partition per tensor group the method fuses (none for the all-gather
    methods and packed Power-SGD). Nothing else reads the buffer size, so
    scenarios differing in ``buffer_bytes`` alone with equal plans build
    equal task lists — the autotuner prices each plan once."""
    system, skel = ctx.system, _skeleton(ctx)
    fused: list = []  # (wire bytes per tensor, compressed?) of each group
    if ctx.method in ("ssgd", "powersgd_star"):
        fused = [(skel.sizes, False)]
    elif ctx.method == "randomk":
        fused = [(_flat_wire(ctx, skel).sizes, True)]
    elif ctx.method == "acpsgd":
        _, factor_bytes, _, plain = _acpsgd_prefix(ctx, skel, parity_p)
        fused = [(factor_bytes, True), ([item.nbytes for item in plain], False)]
    plan = []
    for sizes, compressed in fused:
        buffer = system.buffer_bytes if system.tensor_fusion else 0.0
        if compressed and system.tensor_fusion and system.scale_compressed_buffer:
            # §IV-B: compressed payloads fuse under the buffer x their rate.
            buffer = scaled_buffer_size(buffer, sum(sizes), skel.raw_bytes)
        plan.append(tuple(partition_buckets(sizes, buffer)))
    return tuple(plan)


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

    Dispatches to the method's builder through
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
