"""The one event loop: processor-sharing simulation of a task graph.

:class:`EventLoop` runs a :class:`~repro.sched.graph.TaskGraph` (or a
plain task sequence) over any set of named resources, with

- per-resource scheduling *disciplines* named in
  :data:`repro.sched.scheduler.DISCIPLINES` (``"fifo"`` default,
  ``"priority"``),
- a :class:`~repro.sched.resources.ResourceModel` supplying pairwise
  contention rates (the legacy two-GPU slowdown is one pair),
- ``start_after`` time gates consumed from a **sorted queue** as the
  clock advances: the pending gates are sorted once and a monotone cursor
  yields the next gate in O(1). A task can never complete before its own
  gate, so entries the clock has passed are dead forever and the cursor
  never backtracks (``python -m repro bench --sim``).

Every event costs work proportional to the resources, not to the graph:

- *readiness* is an unmet-dependency counter per task — reverse edges are
  built once per run and decremented when a task completes — so a
  discipline's ``is_ready`` poll is two comparisons, not a walk of ``deps``;
- each *idle* resource is polled once per selection pass (a busy one keeps
  its task; while all are busy the pass is skipped — busy, paired-busy and
  completed counts are kept as tasks start and finish, never recounted);
  zero-work picks complete at that instant and trigger another pass, and
  the picks of the pass that completes nothing are the tasks that run — a
  pick from an earlier pass is never kept, because under ``"priority"`` a
  task released by that pass's progress may outrank it;
- ``ResourceModel.rates`` is consulted only while at least two busy
  resources belong to a contention pair; otherwise every rate is ``1.0``.

What stays bit-exact, and why: the float operations and their order are the
original ``repro.sim.engine`` loop's (the golden traces, the golden plans
and the reference loop in ``tests/reference_event_loop.py`` enforce it) —
per busy resource, in first-use order, ``left -= rate * horizon``; ``now +=
horizon``; completion at ``left <= 1e-15``; zero-work tasks cascade at the
current instant; rate changes happen only at completions or gate
expirations; the clock jumps over fully-gated regions. Skipping the rate
model changes no bit because ``x / 1.0`` and ``x * 1.0`` are exact.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.sched.graph import Task, TaskGraph, TaskRecord
from repro.sched.resources import ResourceModel
from repro.sched.scheduler import DISCIPLINES, FifoScheduler


class EventLoop:
    """Run a task graph to completion and return per-task records.

    Args:
        resources: pairwise contention model (default: no contention —
            every resource always runs at full speed).
        disciplines: per-resource discipline name (``"fifo"`` or
            ``"priority"``). Resources not listed are FIFO.
    """

    def __init__(
        self,
        resources: Optional[ResourceModel] = None,
        disciplines: Optional[Mapping[str, str]] = None,
    ) -> None:
        self.resources = resources if resources is not None else ResourceModel()
        self.disciplines = {}
        for stream, name in (disciplines or {}).items():
            if name not in DISCIPLINES:
                raise ValueError(
                    f"unknown discipline {name!r} for stream {stream!r}"
                )
            self.disciplines[stream] = DISCIPLINES[name]()
        self._default = FifoScheduler()

    def run(
        self, graph: Union[TaskGraph, Sequence[Task]]
    ) -> Dict[str, TaskRecord]:
        """Simulate the graph; returns records keyed by task_id.

        Raises:
            ValueError: duplicate ids, unknown dependencies, or a
                deadlock (circular dependencies / FIFO head blocked
                forever).
        """
        graph = TaskGraph.coerce(graph)
        tasks = graph.tasks

        # One pass over the graph, submission order: per-resource queues,
        # unmet-dependency counts with their reverse edges, pending gates.
        queues: Dict[str, List[Task]] = {}
        unmet: Dict[str, int] = {}
        dependents: Dict[str, List[str]] = {}
        gated: List[Task] = []
        for task in tasks:
            queues.setdefault(task.stream, []).append(task)
            unmet[task.task_id] = len(task.deps)
            for dep in task.deps:
                dependents.setdefault(dep, []).append(task.task_id)
            if task.start_after > 0.0:
                gated.append(task)
        # gate_idx only moves forward — a task cannot finish before its own
        # gate, so any entry with start_after <= now is spent for the run.
        gated.sort(key=lambda t: t.start_after)
        gate_idx = 0

        # Per-resource state, indexed in first-use order (the order every
        # float below is applied in).
        names = list(queues)
        lanes = range(len(names))
        lane_queues = [queues[name] for name in names]
        schedulers = [self.disciplines.get(name, self._default) for name in names]
        heads = [0] * len(names)
        current: List[Optional[Task]] = [None] * len(names)
        left = [0.0] * len(names)  # work left on each resource's current task
        paired = {name for pair in self.resources.pairs for name in pair}
        coupled = [name in paired for name in names]
        full_speed = [1.0] * len(names)

        started: Dict[str, float] = {}
        done: Dict[str, float] = {}
        now = 0.0

        def ready(task: Task) -> bool:
            return not unmet[task.task_id] and now >= task.start_after

        def finish(task: Task) -> None:
            done[task.task_id] = now
            for dependent in dependents.get(task.task_id, ()):
                unmet[dependent] -= 1

        total, finished = len(tasks), 0  # finished == len(done)
        busy = busy_coupled = 0  # resources running a task; those of them paired
        while finished < total:
            # Poll every idle resource (non-preemptive: a busy one keeps its
            # task; all busy, nobody to poll). Zero-work picks complete at
            # this instant and may cascade, so poll again; the picks of the
            # pass that completes nothing are what runs next. A pick made in
            # a pass that went on to progress is not kept — under "priority"
            # a task released by that progress may outrank it.
            progressed = busy < len(names)
            while progressed:
                progressed = False
                picks: List[Tuple[int, Task]] = []
                for lane in lanes:
                    if current[lane] is not None:
                        continue
                    task, heads[lane] = schedulers[lane].select(
                        lane_queues[lane], heads[lane], done, ready
                    )
                    if task is None:
                        continue
                    if task.work == 0.0:
                        started[task.task_id] = now
                        finish(task)
                        finished += 1
                        progressed = True
                    else:
                        picks.append((lane, task))
                if not progressed:
                    for lane, task in picks:
                        current[lane] = task
                        left[lane] = task.work
                        started[task.task_id] = now
                        busy += 1
                        busy_coupled += coupled[lane]
            if finished == total:
                break

            while gate_idx < len(gated) and gated[gate_idx].start_after <= now:
                gate_idx += 1

            if not busy:
                # Everything runnable is time-gated: jump the clock to the
                # earliest future gate whose dependencies are met.
                for idx in range(gate_idx, len(gated)):
                    if not unmet[gated[idx].task_id]:
                        now = gated[idx].start_after
                        break
                else:
                    pending = [t.task_id for t in tasks if t.task_id not in done]
                    raise ValueError(f"deadlock: no runnable task among {pending}")
                continue

            # Rates differ from 1.0 only while two resources of a contention
            # pair are both busy; x / 1.0 and x * 1.0 are exact, so every
            # other event skips the model without changing a bit.
            speed = full_speed
            if busy_coupled > 1:
                rates = self.resources.rates({
                    names[lane]: current[lane]
                    for lane in lanes if current[lane] is not None
                })
                speed = [rates.get(name, 1.0) for name in names]

            # Advance to the earliest completion, but never past a pending
            # task's start_after gate (an idle resource must be able to
            # pick it up the moment it becomes eligible).
            horizon = None
            for lane in lanes:
                if current[lane] is not None:
                    ends_in = left[lane] / speed[lane]
                    if horizon is None or ends_in < horizon:
                        horizon = ends_in
            if gate_idx < len(gated):
                horizon = min(horizon, gated[gate_idx].start_after - now)
            now += horizon
            for lane in lanes:
                if current[lane] is not None:
                    left[lane] -= speed[lane] * horizon
                    if left[lane] <= 1e-15:
                        finish(current[lane])
                        finished += 1
                        current[lane] = None
                        busy -= 1
                        busy_coupled -= coupled[lane]

        return {
            task.task_id: TaskRecord(task, started[task.task_id], done[task.task_id])
            for task in tasks
        }
