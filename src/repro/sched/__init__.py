"""Layered scheduling core: task graphs, resources, schedulers, one loop.

Layering (each importable and testable on its own):

- :mod:`repro.sched.graph` — :class:`Task`, :class:`TaskGraph`,
  :class:`TaskRecord`: typed tasks with resources and dependencies, plus
  the structural transforms builders need.
- :mod:`repro.sched.resources` — :class:`ResourceModel` (named
  resources, per-pair contention rates) and :class:`ResourcePool`
  (groups for placement).
- :mod:`repro.sched.scheduler` — pluggable disciplines (``fifo``,
  ``priority``) and placement schedulers (least-loaded,
  topology-aware); extend :data:`DISCIPLINES` to add one.
- :mod:`repro.sched.engine` — :class:`EventLoop`, the single
  processor-sharing event loop driving any combination of the above.
- :mod:`repro.sched.builders` — graph builders for collectives over a
  :class:`~repro.comm.topology.ClusterTopology` (flat vs hierarchical
  all-reduce as task DAGs over per-node resources).

``repro.sim.engine.Engine`` is this package's :class:`EventLoop` with the
two-GPU contention pair; strategy/pipeline/fault timelines in
:mod:`repro.sim` are builders producing :class:`TaskGraph` instances.
"""

from repro.sched.builders import (
    build_allreduce_graph,
    node_pools,
    simulate_allreduce_makespan,
)
from repro.sched.engine import EventLoop
from repro.sched.graph import Task, TaskGraph, TaskRecord
from repro.sched.resources import ResourceModel, ResourcePool
from repro.sched.scheduler import (
    DISCIPLINES,
    FifoScheduler,
    LeastLoadedPlacement,
    PriorityScheduler,
    TopologyPlacement,
    resolve_discipline,
)

__all__ = [
    "DISCIPLINES",
    "EventLoop",
    "FifoScheduler",
    "LeastLoadedPlacement",
    "PriorityScheduler",
    "ResourceModel",
    "ResourcePool",
    "Task",
    "TaskGraph",
    "TaskRecord",
    "TopologyPlacement",
    "build_allreduce_graph",
    "node_pools",
    "resolve_discipline",
    "simulate_allreduce_makespan",
]
