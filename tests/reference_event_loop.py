"""The event loop this repo shipped before the planner cold-path rewrite,
kept verbatim as the bit-identity oracle for :class:`repro.sched.EventLoop`.

``ReferenceEventLoop.run`` is the parent commit's ``EventLoop.run`` body,
unchanged: readiness re-walks ``deps`` on every poll, every resource is
selected twice per event, ``ResourceModel.rates`` is consulted on every
event. It lives under ``tests/`` only (nothing in ``src/`` may import it);
``tests/test_sched_properties.py`` requires the production loop to return
the same ``float.hex()`` start / end for every task of every generated
graph, and the same ``deadlock:`` message.

Its disciplines and its graph validation are its own too: ``_fifo_select``
and ``_priority_select`` are the ``FifoScheduler.select`` /
``PriorityScheduler.select`` bodies of the ``(queue, cursor, done,
is_ready)`` API, verbatim, chosen per stream by the discipline *name*
(``EventLoop`` construction only validates the names), and ``_validated``
is ``TaskGraph.coerce`` / ``validate`` as the loop called them. So the
oracle does not move when the production loop's inputs do.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.sched.engine import EventLoop
from repro.sched.graph import Task, TaskGraph, TaskRecord
from repro.sched.resources import ResourceModel

ReadyFn = Callable[[Task], bool]


def _fifo_select(
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


def _priority_select(
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


_SELECT = {"fifo": _fifo_select, "priority": _priority_select}


def _validated(graph: Union[TaskGraph, Sequence[Task]]) -> TaskGraph:
    """The parent commit's ``TaskGraph.coerce``: build (a repeated id is
    rejected), then reject dependency edges that point at no task."""
    graph = graph if isinstance(graph, TaskGraph) else TaskGraph(graph)
    for task in graph.tasks:
        for dep in task.deps:
            if dep not in graph:
                raise ValueError(
                    f"task {task.task_id!r} depends on unknown {dep!r}"
                )
    return graph


class ReferenceEventLoop(EventLoop):
    """``EventLoop`` construction, the old validation, ``select`` bodies
    and ``run`` body."""

    def __init__(
        self,
        resources: Optional[ResourceModel] = None,
        disciplines: Optional[Mapping[str, str]] = None,
    ) -> None:
        super().__init__(resources, disciplines)
        self._selects = {
            stream: _SELECT[name] for stream, name in (disciplines or {}).items()
        }

    def run(
        self, graph: Union[TaskGraph, Sequence[Task]]
    ) -> Dict[str, TaskRecord]:
        """Simulate the graph; returns records keyed by task_id.

        Raises:
            ValueError: duplicate ids, unknown dependencies, or a
                deadlock (circular dependencies / FIFO head blocked
                forever).
        """
        graph = _validated(graph)
        tasks = graph.tasks

        queues: Dict[str, List[Task]] = {}
        for task in tasks:  # submission order
            queues.setdefault(task.stream, []).append(task)
        heads: Dict[str, int] = {stream: 0 for stream in queues}
        current: Dict[str, Optional[Task]] = {stream: None for stream in queues}
        schedulers = {
            stream: self._selects.get(stream, _fifo_select) for stream in queues
        }

        remaining: Dict[str, float] = {t.task_id: t.work for t in tasks}
        started: Dict[str, float] = {}
        done: Dict[str, float] = {}
        now = 0.0

        # Satellite: pending start_after gates, sorted once. gate_idx only
        # moves forward — a task cannot finish before its own gate, so any
        # entry with start_after <= now is spent for the rest of the run.
        gated: Tuple[Task, ...] = tuple(sorted(
            (t for t in tasks if t.start_after > 0.0),
            key=lambda t: t.start_after,
        ))
        gate_idx = 0

        def ready(task: Task) -> bool:
            return (
                all(dep in done for dep in task.deps)
                and now >= task.start_after
            )

        def select(stream: str) -> Optional[Task]:
            """The task this resource would run now (non-preemptive)."""
            if current[stream] is not None:
                return current[stream]
            task, heads[stream] = schedulers[stream](
                queues[stream], heads[stream], done, ready
            )
            return task

        total = len(tasks)
        while len(done) < total:
            # Complete zero-work selectable tasks immediately (may cascade).
            progressed = True
            while progressed:
                progressed = False
                for stream in queues:
                    task = select(stream)
                    if task is not None and remaining[task.task_id] == 0.0:
                        started.setdefault(task.task_id, now)
                        done[task.task_id] = now
                        current[stream] = None
                        progressed = True
            if len(done) == total:
                break

            # Determine active tasks.
            active: Dict[str, Task] = {}
            for stream in queues:
                task = select(stream)
                if task is not None:
                    active[stream] = task
                    current[stream] = task

            while gate_idx < len(gated) and gated[gate_idx].start_after <= now:
                gate_idx += 1

            if not active:
                # Everything runnable is time-gated: jump the clock to the
                # earliest future gate whose dependencies are met.
                jumped = False
                for idx in range(gate_idx, len(gated)):
                    candidate = gated[idx]
                    if all(dep in done for dep in candidate.deps):
                        now = candidate.start_after
                        jumped = True
                        break
                if jumped:
                    continue
                pending = [t.task_id for t in tasks if t.task_id not in done]
                raise ValueError(f"deadlock: no runnable task among {pending}")

            rates = self.resources.rates(active)

            # Advance to the earliest completion, but never past a pending
            # task's start_after gate (an idle resource must be able to
            # pick it up the moment it becomes eligible).
            horizon = min(
                remaining[task.task_id] / rates[stream]
                for stream, task in active.items()
            )
            if gate_idx < len(gated):
                horizon = min(horizon, gated[gate_idx].start_after - now)
            for stream, task in active.items():
                started.setdefault(task.task_id, now)
                remaining[task.task_id] -= rates[stream] * horizon
            now += horizon
            for stream, task in list(active.items()):
                if remaining[task.task_id] <= 1e-15:
                    remaining[task.task_id] = 0.0
                    done[task.task_id] = now
                    current[stream] = None

        return {
            task.task_id: TaskRecord(task, started[task.task_id], done[task.task_id])
            for task in tasks
        }
