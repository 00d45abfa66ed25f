"""Scheduling core: task graphs, resources, disciplines, one loop.

Layering (each importable and testable on its own):

- :mod:`repro.sched.graph` — :class:`Task`, :class:`TaskGraph`,
  :class:`TaskRecord`: typed tasks with resources and dependencies, plus
  the structural transforms builders need.
- :mod:`repro.sched.resources` — :class:`ResourceModel` (named
  resources, per-pair contention rates).
- :mod:`repro.sched.scheduler` — the per-resource disciplines
  ``"fifo"`` and ``"priority"``.
- :mod:`repro.sched.engine` — :class:`EventLoop`, the single
  processor-sharing event loop driving any combination of the above.

``repro.sim.engine.Engine`` is this package's :class:`EventLoop` with the
two-GPU contention pair; strategy/pipeline/fault timelines in
:mod:`repro.sim` are builders producing :class:`TaskGraph` instances.
"""

from repro.sched.engine import EventLoop
from repro.sched.graph import Task, TaskGraph, TaskRecord
from repro.sched.resources import ResourceModel
from repro.sched.scheduler import DISCIPLINES, FifoScheduler, PriorityScheduler

__all__ = [
    "DISCIPLINES",
    "EventLoop",
    "FifoScheduler",
    "PriorityScheduler",
    "ResourceModel",
    "Task",
    "TaskGraph",
    "TaskRecord",
]
