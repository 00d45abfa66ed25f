"""Typed task graphs: the unit of work the scheduling core runs.

A :class:`Task` names a unit of simulated work on a *resource* (a GPU
stream, a NIC, one node's intra-node link — any string); a
:class:`TaskGraph` is an immutable, ordered collection of tasks with
dependency edges. Graphs are what the strategy/pipeline/fault *builders*
produce and what :class:`repro.sched.engine.EventLoop` consumes; they
also support the structural transforms those builders need (prefixing
for iteration chaining, dependency rewrites, per-task mapping), each
returning a new graph, so no caller has to reconstruct ``Task`` tuples
by hand.

Submission order is semantically significant — FIFO disciplines replay
it and priority disciplines use it to break ties — so every transform
preserves it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterable, Iterator, Mapping, Optional, Tuple

_INF = float("inf")


@dataclass
class Task:
    """One unit of simulated work.

    Attributes:
        task_id: unique name.
        stream: resource this task runs on — any name. The simulator's
            iterations use ``gpu_main``/``gpu_side``/``nic``.
        work: seconds of work at full rate (finite, >= 0).
        deps: task_ids that must complete before this task may start.
        tag: breakdown category — ``"forward"``, ``"backward"``,
            ``"compression"``, ``"comm"`` or ``"other"``.
        contends: whether this task competes for shared execution
            resources. FLOP-heavy kernels (BP layers, compression GEMMs)
            contend; launch-latency-bound work (tall-skinny QR, which
            barely occupies the SMs) runs concurrently without mutual
            slowdown. Contention between two resources applies only when
            *both* current tasks contend.
        priority: scheduling priority, used only on streams configured
            with the ``"priority"`` discipline (higher runs first among
            ready tasks). Models tensor-priority communication schedulers
            (ByteScheduler / the paper's reference [3]).
        start_after: wall-clock time (finite, >= 0) before which this
            task may not start, even if its dependencies are done. Models
            externally imposed delays — a rank that is down until
            recovery, a retransmit timeout — without inflating the task's
            own work.
    """

    task_id: str
    stream: str
    work: float
    deps: Tuple[str, ...] = ()
    tag: str = "other"
    contends: bool = True
    priority: int = 0
    start_after: float = 0.0

    def __post_init__(self) -> None:
        # One chained comparison per field on the path every task takes; NaN
        # fails it too (an infinite or NaN work never completes in the loop).
        if not 0 <= self.work < _INF:
            kind = "negative" if self.work < 0 else "non-finite"
            raise ValueError(f"task {self.task_id!r} has {kind} work {self.work}")
        if not 0 <= self.start_after < _INF:
            kind = "negative" if self.start_after < 0 else "non-finite"
            raise ValueError(
                f"task {self.task_id!r} has {kind} start_after {self.start_after}"
            )


@dataclass
class TaskRecord:
    """Execution record of one task."""

    task: Task
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class TaskGraph:
    """An immutable, ordered collection of :class:`Task` with dependency
    edges.

    ``position`` maps each id to its submission index (the event loop's
    name for a task). Duplicate ids are rejected at construction (the first
    repeated id is named); dangling dependency edges are rejected by the
    event loop, in the pass that compiles the graph.
    """

    def __init__(self, tasks: Iterable[Task] = ()) -> None:
        self._tasks = tuple(tasks)
        self.position: Dict[str, int] = {
            task.task_id: pos for pos, task in enumerate(self._tasks)
        }
        if len(self.position) != len(self._tasks):
            seen = set()
            for task in self._tasks:
                if task.task_id in seen:
                    raise ValueError(f"duplicate task id {task.task_id!r}")
                seen.add(task.task_id)

    # -- inspection ---------------------------------------------------
    @property
    def tasks(self) -> Tuple[Task, ...]:
        """All tasks in submission order."""
        return self._tasks

    def __len__(self) -> int:
        return len(self._tasks)

    def __iter__(self) -> Iterator[Task]:
        return iter(self._tasks)

    def __contains__(self, task_id: str) -> bool:
        return task_id in self.position

    def get(self, task_id: str) -> Optional[Task]:
        pos = self.position.get(task_id)
        return None if pos is None else self._tasks[pos]

    # -- transforms (all preserve submission order) -------------------
    def prefixed(self, prefix: str) -> "TaskGraph":
        """Clone with every id (and dependency edge) prefixed."""
        return TaskGraph(
            replace(
                task,
                task_id=prefix + task.task_id,
                deps=tuple(prefix + dep for dep in task.deps),
            )
            for task in self._tasks
        )

    def with_deps(self, deps: Mapping[str, Tuple[str, ...]]) -> "TaskGraph":
        """Clone with the listed tasks' dependency tuples *replaced*."""
        unknown = [task_id for task_id in deps if task_id not in self.position]
        if unknown:
            raise ValueError(f"with_deps: unknown task ids {unknown}")
        return TaskGraph(
            replace(task, deps=deps[task.task_id])
            if task.task_id in deps else task
            for task in self._tasks
        )

    def map_tasks(self, fn: Callable[[Task], Task]) -> "TaskGraph":
        """Clone with ``fn`` applied to every task (fault perturbation)."""
        return TaskGraph(fn(task) for task in self._tasks)

