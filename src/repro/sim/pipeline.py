"""Steady-state multi-iteration simulation.

A single-iteration makespan overstates steady-state cost: in DDP-style
training, the communication tail of iteration ``t`` (the shallow layers'
buckets, which become ready last) overlaps iteration ``t+1``'s forward
pass of the *deep* layers, because layer ``l``'s next forward only needs
layer ``l``'s own update to have arrived. This module chains several
iterations with exactly that per-layer dependency structure — as graph
transforms over :class:`repro.sched.TaskGraph` (prefixing plus
dependency rewrites) — and reports the marginal (steady-state)
per-iteration time.

Only the per-layer-parameter dependency is modeled for S-SGD and ACP-SGD
(whose collectives are non-blocking); the original Power-SGD's blocking
two-phase pipeline serializes at the iteration boundary by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.models.spec import ModelSpec
from repro.sched import TaskGraph
from repro.sim.calibration import SimConfig
from repro.sim.engine import Task
from repro.sim.strategies import BuildContext, ClusterSpec, SystemConfig

_PIPELINED_METHODS = ("ssgd", "acpsgd")


@dataclass(frozen=True)
class SteadyStateResult:
    """Makespans of a chained multi-iteration run.

    Attributes:
        single_iteration: makespan of one isolated iteration (s).
        steady_iteration: marginal per-iteration time in the chained run,
            ``(makespan(n) - makespan(1)) / (n - 1)``.
        iterations: chain length used.
    """

    single_iteration: float
    steady_iteration: float
    iterations: int

    @property
    def pipeline_gain(self) -> float:
        """single / steady — how much cross-iteration overlap buys."""
        if self.steady_iteration <= 0:
            return 1.0
        return self.single_iteration / self.steady_iteration


def _chain_graphs(
    per_iteration: Sequence[TaskGraph],
    comm_barrier: bool,
) -> TaskGraph:
    """Merge iteration graphs with cross-iteration dependencies.

    The first forward task of iteration ``i+1`` depends on iteration ``i``'s
    last *compute* task always (the optimizer step), and — when
    ``comm_barrier`` — on every comm task of iteration ``i`` too (a full
    synchronization, the non-pipelined baseline). Without the barrier, each
    comm task instead gates the forward task of the *latest* layer whose
    tensors it carried; here we approximate with the matching-index forward
    task, which preserves the "shallow buckets gate early forwards, deep
    buckets can lag" structure.
    """
    chained: List[Task] = []
    prev_comm_ids: List[str] = []
    prev_last_compute: Optional[str] = None
    for iteration, graph in enumerate(per_iteration):
        graph = graph.prefixed(f"it{iteration}:")
        tasks = graph.tasks
        forward = [t for t in tasks if t.tag == "forward"]
        if iteration > 0:
            extra_deps: Dict[str, Tuple[str, ...]] = {}
            first_forward = forward[0]
            deps = list(first_forward.deps)
            if prev_last_compute is not None:
                deps.append(prev_last_compute)
            if comm_barrier:
                deps.extend(prev_comm_ids)
                extra_deps[first_forward.task_id] = tuple(deps)
            else:
                extra_deps[first_forward.task_id] = tuple(deps)
                # Comm buckets gate forwards progressively: bucket k (ready
                # k-th from the end of BP, i.e. shallower layers) gates the
                # k-th forward task. Deep-layer buckets (early k) gate later
                # forwards, which start late anyway — so their comm hides.
                count = min(len(prev_comm_ids), len(forward) - 1)
                for idx in range(count):
                    fwd = forward[idx + 1]
                    comm_id = prev_comm_ids[len(prev_comm_ids) - 1 - idx]
                    extra_deps.setdefault(fwd.task_id, fwd.deps)
                    extra_deps[fwd.task_id] = extra_deps[fwd.task_id] + (comm_id,)
            graph = graph.with_deps(extra_deps)
            tasks = graph.tasks
        chained.extend(tasks)
        prev_comm_ids = [t.task_id for t in tasks if t.tag == "comm"]
        compute = [t for t in tasks if t.stream != "nic"]
        prev_last_compute = compute[-1].task_id if compute else None
    return TaskGraph(chained)


def _prioritize_comm(graph: TaskGraph) -> TaskGraph:
    """Priority-schedule communication by next-iteration need.

    Buckets become ready deep-to-shallow during BP, but the next forward
    consumes updates shallow-to-deep — so later-submitted buckets get
    *higher* priority (the ByteScheduler insight, the paper's ref [3]).
    """
    counter = {"comm": 0}

    def bump(task: Task) -> Task:
        if task.tag != "comm":
            return task
        task = replace(task, priority=counter["comm"])
        counter["comm"] += 1
        return task

    return graph.map_tasks(bump)


def _steady_state_graph(
    ctx: BuildContext, iterations: int, pipelined: Optional[bool], priority_comm: bool
) -> TaskGraph:
    """``iterations`` step graphs of ``ctx`` (ACP-SGD alternating P/Q), chained."""
    if pipelined is None:
        pipelined = ctx.method in _PIPELINED_METHODS
    per_iteration = [ctx.graph(idx % 2 == 0) for idx in range(iterations)]
    if priority_comm:
        per_iteration = [_prioritize_comm(graph) for graph in per_iteration]
    return _chain_graphs(per_iteration, comm_barrier=not pipelined)


def build_steady_state_graph(
    method: str,
    model: ModelSpec,
    cluster: Optional[ClusterSpec] = None,
    system: Optional[SystemConfig] = None,
    sim: Optional[SimConfig] = None,
    batch_size: Optional[int] = None,
    rank: int = 4,
    iterations: int = 4,
    pipelined: Optional[bool] = None,
    priority_comm: bool = False,
) -> TaskGraph:
    """The chained multi-iteration graph ``simulate_steady_state`` runs."""
    if iterations < 2:
        raise ValueError(f"need >= 2 iterations, got {iterations}")
    ctx = BuildContext.resolve(method, model, cluster, system, sim, batch_size, rank)
    return _steady_state_graph(ctx, iterations, pipelined, priority_comm)


def simulate_steady_state(
    method: str,
    model: ModelSpec,
    cluster: Optional[ClusterSpec] = None,
    system: Optional[SystemConfig] = None,
    sim: Optional[SimConfig] = None,
    batch_size: Optional[int] = None,
    rank: int = 4,
    iterations: int = 4,
    pipelined: Optional[bool] = None,
    priority_comm: bool = False,
) -> SteadyStateResult:
    """Chain ``iterations`` iterations and measure the marginal time.

    Args:
        pipelined: allow cross-iteration comm/forward overlap (default:
            True for the non-blocking methods S-SGD and ACP-SGD, False
            otherwise).
        priority_comm: schedule the NIC by tensor priority instead of FIFO
            (shallow-layer buckets first), modeling a communication
            scheduler like the paper's reference [3].
    """
    if iterations < 2:
        raise ValueError(f"need >= 2 iterations, got {iterations}")
    ctx = BuildContext.resolve(method, model, cluster, system, sim, batch_size, rank)
    single_graph = ctx.graph()
    if priority_comm:
        single_graph = _prioritize_comm(single_graph)
    chained = _steady_state_graph(ctx, iterations, pipelined, priority_comm)
    disciplines = {"nic": "priority"} if priority_comm else None
    single = max(
        record.end for record in ctx.run(single_graph, disciplines).values()
    )
    total = max(record.end for record in ctx.run(chained, disciplines).values())
    steady = (total - single) / (iterations - 1)
    return SteadyStateResult(single, steady, iterations)
