"""Pluggable schedulers: per-resource disciplines and graph placement.

Two scheduler kinds, both plain objects testable without the event loop:

- **Disciplines** order one resource's queue. :class:`FifoScheduler`
  replays submission order with head-of-line blocking (CUDA stream /
  NCCL queue semantics); :class:`PriorityScheduler` runs the highest
  ``Task.priority`` among dependency-ready tasks (a ByteScheduler-style
  communication scheduler). The event loop calls ``select`` once per
  decision point; a discipline never mutates the queue.

- **Placement schedulers** assign pool-addressed tasks to concrete
  resources *before* the run: :class:`LeastLoadedPlacement` balances by
  accumulated work, :class:`TopologyPlacement` pins tasks to their
  node's member of each pool (intra-node links, per-node NICs) using a
  :class:`~repro.comm.topology.ClusterTopology` and per-task node hints.

To add a discipline, implement ``select`` and register it in
:data:`DISCIPLINES`; every consumer (``repro.sim.engine.Engine`` included)
resolves names through :func:`resolve_discipline`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.comm.topology import ClusterTopology
from repro.sched.graph import Task, TaskGraph
from repro.sched.resources import ResourcePool

#: ``select`` inputs: the queue, the FIFO cursor, completed ids, and a
#: readiness predicate (deps done and ``start_after`` passed). Returns
#: the chosen task (or None) plus the advanced cursor.
ReadyFn = Callable[[Task], bool]


class FifoScheduler:
    """Strict submission order; a blocked head stalls the whole queue."""

    name = "fifo"

    def select(
        self,
        queue: Sequence[Task],
        cursor: int,
        done: Mapping[str, float],
        is_ready: ReadyFn,
    ) -> Tuple[Optional[Task], int]:
        idx = cursor
        while idx < len(queue) and queue[idx].task_id in done:
            idx += 1
        if idx < len(queue) and is_ready(queue[idx]):
            return queue[idx], idx
        return None, idx


class PriorityScheduler:
    """Highest ``Task.priority`` among ready tasks; submission order
    breaks ties; a blocked head does not stall the queue."""

    name = "priority"

    def select(
        self,
        queue: Sequence[Task],
        cursor: int,
        done: Mapping[str, float],
        is_ready: ReadyFn,
    ) -> Tuple[Optional[Task], int]:
        best: Optional[Task] = None
        for candidate in queue:
            if candidate.task_id in done:
                continue
            if not is_ready(candidate):
                continue
            if best is None or candidate.priority > best.priority:
                best = candidate
        return best, cursor


#: Name -> discipline factory. Extend this to plug in new disciplines.
DISCIPLINES: Dict[str, Callable[[], object]] = {
    "fifo": FifoScheduler,
    "priority": PriorityScheduler,
}

Discipline = Union[FifoScheduler, PriorityScheduler]


def resolve_discipline(spec: Union[str, object], stream: str = "?") -> object:
    """Turn a discipline name (or ready-made scheduler) into an object."""
    if isinstance(spec, str):
        factory = DISCIPLINES.get(spec)
        if factory is None:
            raise ValueError(
                f"unknown discipline {spec!r} for stream {stream!r}"
            )
        return factory()
    if not hasattr(spec, "select"):
        raise ValueError(
            f"discipline for stream {stream!r} must be a name in "
            f"{sorted(DISCIPLINES)} or expose select(), got {spec!r}"
        )
    return spec


# ---------------------------------------------------------------------------
# Placement: pool-addressed graphs -> concrete resources.
# ---------------------------------------------------------------------------


class LeastLoadedPlacement:
    """Assign each pool task to the member with the least assigned work.

    Ties go to the lowest-index member, so placement is deterministic in
    submission order.
    """

    def assign(
        self,
        graph: TaskGraph,
        pools: Sequence[ResourcePool],
        hints: Optional[Mapping[str, int]] = None,
    ) -> TaskGraph:
        by_name = {pool.name: pool for pool in pools}
        load: Dict[str, float] = {
            member: 0.0 for pool in pools for member in pool.members
        }

        def place(task: Task) -> Task:
            pool = by_name.get(task.stream)
            if pool is None:
                return task
            member = self._pick(task, pool, hints or {}, load)
            load[member] += task.work
            from dataclasses import replace

            return replace(task, stream=member)

        return graph.map_tasks(place)

    def _pick(
        self,
        task: Task,
        pool: ResourcePool,
        hints: Mapping[str, int],
        load: Dict[str, float],
    ) -> str:
        idx = min(
            range(len(pool.members)),
            key=lambda i: (load[pool.members[i]], i),
        )
        return pool.members[idx]


class TopologyPlacement(LeastLoadedPlacement):
    """Topology-aware placement: honor per-task node pins.

    A task hinted to node ``k`` lands on member ``k`` of its pool (pools
    are laid out one member per node, the :func:`repro.sched.builders
    .node_pools` convention). Unhinted tasks fall back to least-loaded.
    """

    def __init__(
        self,
        topology: ClusterTopology,
        hints: Optional[Mapping[str, int]] = None,
    ) -> None:
        self.topology = topology
        self.hints = dict(hints or {})

    def assign(
        self,
        graph: TaskGraph,
        pools: Sequence[ResourcePool],
        hints: Optional[Mapping[str, int]] = None,
    ) -> TaskGraph:
        merged = dict(self.hints)
        merged.update(hints or {})
        return super().assign(graph, pools, merged)

    def _pick(
        self,
        task: Task,
        pool: ResourcePool,
        hints: Mapping[str, int],
        load: Dict[str, float],
    ) -> str:
        node = hints.get(task.task_id)
        if node is not None:
            if not 0 <= node < self.topology.num_nodes:
                raise ValueError(
                    f"task {task.task_id!r} pinned to node {node}, but the "
                    f"topology has {self.topology.num_nodes} nodes"
                )
            if len(pool.members) != self.topology.num_nodes:
                raise ValueError(
                    f"pool {pool.name!r} has {len(pool.members)} members but "
                    f"the topology has {self.topology.num_nodes} nodes"
                )
            return pool.members[node]
        return super()._pick(task, pool, hints, load)


# Membership check used by docs/tests ("how to add a scheduler").
PLACEMENTS: Dict[str, Callable[..., object]] = {
    "least_loaded": LeastLoadedPlacement,
    "topology": TopologyPlacement,
}
