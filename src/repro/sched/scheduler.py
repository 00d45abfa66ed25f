"""Per-resource scheduling disciplines, named ``"fifo"`` and ``"priority"``.

A discipline orders one resource's queue. :class:`FifoScheduler` replays
submission order with head-of-line blocking (CUDA stream / NCCL queue
semantics); :class:`PriorityScheduler` runs the highest ``Task.priority``
among dependency-ready tasks (a ByteScheduler-style communication
scheduler). The event loop calls ``select`` once per decision point; a
discipline never mutates its inputs. :data:`DISCIPLINES` maps each name
to its scheduler class.

``select`` works on task *positions* (submission indices) — the event
loop's compiled form of a graph:

- ``lane``: the positions queued on this resource, in submission order;
- ``cursor``: the FIFO head, an index into ``lane``;
- ``tasks``: the graph's tasks, indexed by position;
- ``done`` / ``unmet`` / ``start_after``: per position, whether the task
  completed, its count of unfinished dependencies and its time gate — a
  task is ready when ``unmet`` is 0 and ``now >= start_after``.

It returns the chosen position (or None) plus the advanced cursor.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.sched.graph import Task


class FifoScheduler:
    """Strict submission order; a blocked head stalls the whole queue."""

    def select(
        self,
        lane: Sequence[int],
        cursor: int,
        tasks: Sequence[Task],
        done: Sequence[bool],
        unmet: Sequence[int],
        start_after: Sequence[float],
        now: float,
    ) -> Tuple[Optional[int], int]:
        idx, end = cursor, len(lane)
        while idx < end and done[lane[idx]]:
            idx += 1
        if idx < end:
            pos = lane[idx]
            if not unmet[pos] and now >= start_after[pos]:
                return pos, idx
        return None, idx


class PriorityScheduler:
    """Highest ``Task.priority`` among ready tasks; submission order
    breaks ties; a blocked head does not stall the queue."""

    def select(
        self,
        lane: Sequence[int],
        cursor: int,
        tasks: Sequence[Task],
        done: Sequence[bool],
        unmet: Sequence[int],
        start_after: Sequence[float],
        now: float,
    ) -> Tuple[Optional[int], int]:
        best: Optional[int] = None
        for pos in lane:
            if done[pos] or unmet[pos] or not now >= start_after[pos]:
                continue
            if best is None or tasks[pos].priority > tasks[best].priority:
                best = pos
        return best, cursor


#: Name -> discipline class.
DISCIPLINES: Dict[str, type] = {
    "fifo": FifoScheduler,
    "priority": PriorityScheduler,
}
