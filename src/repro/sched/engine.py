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
  never backtracks.

Each run starts with one *compile pass* over the graph, in submission
order, reading the graph's ``position`` map (id -> submission index, built
once with the :class:`~repro.sched.graph.TaskGraph`): a resource becomes a
*lane* (first-use order) holding its positions, and all per-task state —
unmet-dependency counts, reverse edges, ``work``, ``start_after``, start /
end times, done flags — is a list indexed by position. The same pass is the
graph's one walk of ``deps``: an edge to no task is rejected there (``task
'b' depends on unknown 'x'``); a repeated id is rejected when a plain
sequence is built into a :class:`~repro.sched.graph.TaskGraph`. Nothing in
the loop looks a task id up.

Every event costs work proportional to the resources, not to the graph:

- *readiness* is an unmet-dependency counter per task — decremented along
  the reverse edges when a task completes — so a discipline's ``select``
  tests two list entries per candidate, not a walk of ``deps``;
- each *idle* resource is polled once per selection pass (a busy one keeps
  its task; while all are busy the pass is skipped — busy, paired-busy and
  completed counts are kept as tasks start and finish, never recounted);
  zero-work picks complete at that instant and trigger another pass, and
  the picks of the pass that completes nothing are the tasks that run — a
  pick from an earlier pass is never kept, because under ``"priority"`` a
  task released by that pass's progress may outrank it;
- ``ResourceModel.rates`` is consulted only while at least two busy
  resources belong to a contention pair; otherwise every rate is ``1.0``;
- while exactly one resource is busy, it is FIFO and no ``start_after``
  gate is pending, the loop runs that lane's queue in a *solo stretch*: no
  other lane is polled and no horizon is taken, each task just adds its
  work to the clock. Every other lane's last poll found nothing and, with
  no gate pending, only a completion can change that, so the stretch ends
  (back to the general loop) when a completion readies a task on another
  lane, or the lane's next head is not ready or has zero work. A simulated
  iteration runs most of its FF/BP chain this way.

What stays bit-exact, and why: the float operations and their order are the
original ``repro.sim.engine`` loop's (the golden traces, the golden plans
and the reference loop in ``tests/reference_event_loop.py`` enforce it) —
per busy resource, in first-use order, ``left -= rate * horizon``; ``now +=
horizon``; completion at ``left <= 1e-15``; zero-work tasks cascade at the
current instant; rate changes happen only at completions or gate
expirations; the clock jumps over fully-gated regions. Skipping the rate
model changes no bit because ``x / 1.0`` and ``x * 1.0`` are exact, and the
solo stretch's ``now += left`` is the general step with one busy resource:
``horizon = left / 1.0`` and ``left - 1.0 * horizon == 0.0``.
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
        if not isinstance(graph, TaskGraph):
            graph = TaskGraph(graph)  # rejects a repeated id
        tasks = graph.tasks
        total = len(tasks)

        # The compile pass (module docstring): lanes in first-use order (the
        # order every float below is applied in), unmet counts and reverse
        # edges over the graph's positions, pending gates.
        position = graph.position
        queues: Dict[str, List[int]] = {}
        unmet = [len(task.deps) for task in tasks]
        dependents: List[List[int]] = [[] for _ in tasks]
        gated: List[int] = []
        for pos, task in enumerate(tasks):
            queue = queues.get(task.stream)
            if queue is None:
                queue = queues[task.stream] = []
            queue.append(pos)
            for dep in task.deps:
                upstream = position.get(dep)
                if upstream is None:
                    raise ValueError(
                        f"task {task.task_id!r} depends on unknown {dep!r}"
                    )
                dependents[upstream].append(pos)
            if task.start_after > 0.0:
                gated.append(pos)
        work = [task.work for task in tasks]
        start_after = [task.start_after for task in tasks]
        # gate_idx only moves forward — a task cannot finish before its own
        # gate, so any entry with start_after <= now is spent for the run.
        gated.sort(key=start_after.__getitem__)
        gate_idx, gates = 0, len(gated)

        # Per-lane state, indexed in first-use order.
        names = list(queues)
        lane_queues = list(queues.values())
        width = len(names)
        lanes = range(width)
        disciplines = [self.disciplines.get(name, self._default) for name in names]
        selects = [discipline.select for discipline in disciplines]
        fifo = [type(discipline) is FifoScheduler for discipline in disciplines]
        heads = [0] * width
        current: List[Optional[int]] = [None] * width  # the running position
        left = [0.0] * width  # work left on each resource's current task
        paired = {name for pair in self.resources.pairs for name in pair}
        coupled = [name in paired for name in names]
        full_speed = [1.0] * width

        started = [0.0] * total
        ended = [0.0] * total
        done = [False] * total
        now = 0.0

        finished = 0  # == sum(done)
        busy = busy_coupled = 0  # resources running a task; those of them paired
        while finished < total:
            # Poll every idle resource (non-preemptive: a busy one keeps its
            # task; all busy, nobody to poll). Zero-work picks complete at
            # this instant and may cascade, so poll again; the picks of the
            # pass that completes nothing are what runs next. A pick made in
            # a pass that went on to progress is not kept — under "priority"
            # a task released by that progress may outrank it.
            progressed = busy < width
            while progressed:
                progressed = False
                picks: List[Tuple[int, int]] = []
                for lane in lanes:
                    if current[lane] is not None:
                        continue
                    pos, heads[lane] = selects[lane](
                        lane_queues[lane], heads[lane], tasks, done, unmet,
                        start_after, now,
                    )
                    if pos is None:
                        continue
                    if work[pos] == 0.0:
                        started[pos] = ended[pos] = now
                        done[pos] = True
                        for dependent in dependents[pos]:
                            unmet[dependent] -= 1
                        finished += 1
                        progressed = True
                    else:
                        picks.append((lane, pos))
                if not progressed:
                    for lane, pos in picks:
                        current[lane] = pos
                        left[lane] = work[pos]
                        started[pos] = now
                        busy += 1
                        busy_coupled += coupled[lane]
            if finished == total:
                break

            while gate_idx < gates and start_after[gated[gate_idx]] <= now:
                gate_idx += 1

            if busy == 1 and gate_idx == gates:
                lane = 0
                while current[lane] is None:
                    lane += 1
                if fifo[lane]:
                    # The solo stretch (module docstring): the one busy FIFO
                    # lane runs its chain while no other lane can start.
                    queue, head, stream = lane_queues[lane], heads[lane], names[lane]
                    pos, span = current[lane], left[lane]
                    while True:
                        now += span
                        ended[pos] = now
                        done[pos] = True
                        finished += 1
                        released = False
                        for dependent in dependents[pos]:
                            unmet[dependent] -= 1
                            if not unmet[dependent] and tasks[dependent].stream != stream:
                                released = True
                        head += 1
                        if released or head == len(queue):
                            break
                        pos = queue[head]
                        span = work[pos]
                        if unmet[pos] or not span:
                            break
                        started[pos] = now
                    heads[lane] = head
                    current[lane] = None
                    busy = 0
                    busy_coupled -= coupled[lane]
                    continue

            if not busy:
                # Everything runnable is time-gated: jump the clock to the
                # earliest future gate whose dependencies are met.
                for idx in range(gate_idx, gates):
                    if not unmet[gated[idx]]:
                        now = start_after[gated[idx]]
                        break
                else:
                    pending = [
                        task.task_id for task, flag in zip(tasks, done) if not flag
                    ]
                    raise ValueError(f"deadlock: no runnable task among {pending}")
                continue

            # Rates differ from 1.0 only while two resources of a contention
            # pair are both busy; x / 1.0 and x * 1.0 are exact, so every
            # other event skips the model without changing a bit.
            speed = full_speed
            if busy_coupled > 1:
                rates = self.resources.rates({
                    names[lane]: tasks[current[lane]]
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
            if gate_idx < gates:
                horizon = min(horizon, start_after[gated[gate_idx]] - now)
            now += horizon
            for lane in lanes:
                pos = current[lane]
                if pos is not None:
                    left[lane] -= speed[lane] * horizon
                    if left[lane] <= 1e-15:
                        ended[pos] = now
                        done[pos] = True
                        for dependent in dependents[pos]:
                            unmet[dependent] -= 1
                        finished += 1
                        current[lane] = None
                        busy -= 1
                        busy_coupled -= coupled[lane]

        # ``position`` lists every id once, in submission order.
        return dict(zip(position, map(TaskRecord, tasks, started, ended)))
