"""Per-resource scheduling disciplines, named ``"fifo"`` and ``"priority"``.

A discipline orders one resource's queue. :class:`FifoScheduler` replays
submission order with head-of-line blocking (CUDA stream / NCCL queue
semantics); :class:`PriorityScheduler` runs the highest ``Task.priority``
among dependency-ready tasks (a ByteScheduler-style communication
scheduler). The event loop calls ``select`` once per decision point; a
discipline never mutates the queue. :data:`DISCIPLINES` maps each name
to its scheduler class.
"""

from __future__ import annotations

from typing import Callable, Dict, Mapping, Optional, Sequence, Tuple

from repro.sched.graph import Task

#: ``select`` inputs: the queue, the FIFO cursor, completed ids, and a
#: readiness predicate (deps done and ``start_after`` passed). Returns
#: the chosen task (or None) plus the advanced cursor.
ReadyFn = Callable[[Task], bool]


class FifoScheduler:
    """Strict submission order; a blocked head stalls the whole queue."""

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


#: Name -> discipline class.
DISCIPLINES: Dict[str, type] = {
    "fifo": FifoScheduler,
    "priority": PriorityScheduler,
}

