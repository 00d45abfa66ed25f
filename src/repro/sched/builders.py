"""Collective task-graph builders over a two-level cluster topology.

These builders express the flat and hierarchical all-reduce schedules of
:mod:`repro.comm.topology` as task DAGs over per-node resources. Running
them through :class:`~repro.sched.engine.EventLoop` reproduces the
analytic ``flat_allreduce_time`` / ``hierarchical_allreduce_time``
makespans (and hence the flat-vs-hierarchical crossover) from first
principles — per phase, per node, per link — instead of from one
closed-form expression, which is what lets the same machinery answer
questions the formula cannot (stragglers on one node, overlapping
several collectives).

Resource naming convention (index = node): ``node{i}:intra`` for the
node's GPU-to-GPU link, ``node{i}:nic`` for its NIC.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.comm.cost_model import allreduce_time
from repro.comm.topology import ClusterTopology, _ring_phase_time
from repro.sched.engine import EventLoop
from repro.sched.graph import Task, TaskGraph

SCHEMES = ("flat", "hierarchical")


def build_allreduce_graph(
    nbytes: float,
    topology: ClusterTopology,
    scheme: str = "hierarchical",
) -> TaskGraph:
    """One all-reduce of ``nbytes`` as a task DAG over per-node links.

    ``"flat"``: a single ring over all GPUs — reduce-scatter then
    all-gather, every step crossing the inter-node link, each node's NIC
    busy for both phases.

    ``"hierarchical"``: per-node intra reduce-scatter on the fast link,
    an inter-node ring over the leaders (all local shards cross in
    parallel but share each NIC, so each NIC carries the full buffer's
    inter-ring traffic), then per-node intra all-gather. The inter phase
    is a collective: it starts only once *every* node's reduce-scatter
    is done.

    Each phase is one task per node, on that node's ``node{i}:intra`` or
    ``node{i}:nic``.
    """
    if nbytes < 0:
        raise ValueError(f"nbytes must be >= 0, got {nbytes}")
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; available: {SCHEMES}")

    nodes = topology.num_nodes

    def phase(name: str, link: str, work: float,
              deps: Sequence[Tuple[str, ...]]) -> List[Task]:
        """One task per node; ``deps[i]`` is node ``i``'s dependencies."""
        return [
            Task(f"{name}[n{i}]", f"node{i}:{link}", work, deps[i],
                 tag="comm", contends=False)
            for i in range(nodes)
        ]

    def after_all(tasks: List[Task]) -> List[Tuple[str, ...]]:
        return [tuple(task.task_id for task in tasks)] * nodes

    if scheme == "flat":
        work = _ring_phase_time(
            nbytes, topology.world_size, topology.inter_link
        )
        rs = phase("flat_rs", "nic", work, [()] * nodes)
        return TaskGraph(rs + phase("flat_ag", "nic", work, after_all(rs)))
    intra = _ring_phase_time(
        nbytes, topology.gpus_per_node, topology.intra_link
    )
    rs = phase("hier_rs", "intra", intra, [()] * nodes)
    inter = phase(
        "hier_inter", "nic", allreduce_time(nbytes, nodes, topology.inter_link),
        after_all(rs),
    )
    ag = phase("hier_ag", "intra", intra, [(task.task_id,) for task in inter])
    return TaskGraph(rs + inter + ag)


def simulate_allreduce_makespan(
    nbytes: float,
    topology: ClusterTopology,
    scheme: str = "hierarchical",
) -> float:
    """Makespan of one all-reduce DAG through the event loop."""
    graph = build_allreduce_graph(nbytes, topology, scheme)
    records = EventLoop().run(graph)
    return max((record.end for record in records.values()), default=0.0)
