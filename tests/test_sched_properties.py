"""Property-based tests of the repro.sched scheduler core.

The invariants here are discipline-level guarantees of the generalized
event loop (arbitrary named resources, per-resource disciplines), distinct
from the legacy-engine properties in ``test_engine_properties.py``:

- a resource executes one task at a time (no same-resource overlap);
- every dependency and ``start_after`` gate precedes the dependent start;
- under the priority discipline with all-distinct priorities and no
  dependencies, the schedule is invariant to submission order;
- on a pure chain, fifo and priority produce identical records (only one
  task is ever ready, so the discipline cannot matter);
- the loop is bit-identical (``float.hex()`` start / end per task, same
  ``deadlock:`` message) to ``tests/reference_event_loop.py`` — the loop
  that re-walked ``deps`` on every poll — for every discipline, on random
  graphs and on simulator-shaped ones (where the loop's solo stretch runs).
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.sched import EventLoop, ResourceModel, Task, TaskGraph
from tests.reference_event_loop import ReferenceEventLoop

RESOURCES = ("alpha", "beta", "gamma")


def on_every(discipline, resources=RESOURCES):
    """``disciplines=`` naming ``discipline`` for every resource."""
    return {resource: discipline for resource in resources}

#: Zero-work tasks (instant cascades) are as common as any other length.
WORK = st.one_of(st.just(0.0), st.floats(0.0, 3.0))


@st.composite
def random_graph(draw):
    """A forward-referencing DAG over three named resources."""
    count = draw(st.integers(1, 20))
    tasks = []
    for idx in range(count):
        max_deps = min(idx, 3)
        dep_count = draw(st.integers(0, max_deps))
        deps = tuple(
            f"t{d}" for d in sorted(draw(st.sets(
                st.integers(0, idx - 1),
                min_size=dep_count, max_size=dep_count,
            )))
        ) if idx > 0 else ()
        tasks.append(Task(
            task_id=f"t{idx}",
            stream=draw(st.sampled_from(RESOURCES)),
            work=draw(WORK),
            deps=deps,
            contends=draw(st.booleans()),
            priority=draw(st.integers(0, 3)),
            start_after=draw(st.sampled_from((0.0, 0.25, 1.0))),
        ))
    return TaskGraph(tasks)


@st.composite
def priority_batch(draw):
    """Independent unit-resource tasks with all-distinct priorities."""
    count = draw(st.integers(2, 10))
    priorities = draw(st.permutations(range(count)))
    works = draw(st.lists(st.floats(0.01, 2.0), min_size=count,
                          max_size=count))
    return [
        Task(f"t{idx}", "only", works[idx], priority=priorities[idx])
        for idx in range(count)
    ]


class TestCoreInvariants:
    @settings(max_examples=60, deadline=None)
    @given(graph=random_graph(),
           discipline=st.sampled_from(("fifo", "priority")))
    def test_no_same_resource_overlap(self, graph, discipline):
        loop = EventLoop(disciplines=on_every(discipline))
        records = loop.run(graph)
        by_resource = {}
        for record in records.values():
            by_resource.setdefault(record.task.stream, []).append(record)
        for resource_records in by_resource.values():
            resource_records.sort(key=lambda r: (r.start, r.end))
            for earlier, later in zip(resource_records,
                                      resource_records[1:]):
                assert earlier.end <= later.start + 1e-9, (
                    f"{earlier.task.task_id} and {later.task.task_id} "
                    f"overlap on {earlier.task.stream}"
                )

    @settings(max_examples=60, deadline=None)
    @given(graph=random_graph(),
           discipline=st.sampled_from(("fifo", "priority")))
    def test_deps_and_gates_precede_starts(self, graph, discipline):
        records = EventLoop(disciplines=on_every(discipline)).run(graph)
        assert len(records) == len(graph)
        for task in graph:
            record = records[task.task_id]
            assert record.start >= task.start_after - 1e-12
            assert record.end >= record.start
            for dep in task.deps:
                assert records[dep].end <= record.start + 1e-9

    @settings(max_examples=60, deadline=None)
    @given(graph=random_graph())
    def test_contention_never_contracts_durations(self, graph):
        free = EventLoop().run(graph)
        shared = EventLoop(
            resources=ResourceModel({("alpha", "beta"): 0.25})
        ).run(graph)
        for task in graph:
            assert shared[task.task_id].duration >= (
                free[task.task_id].duration - 1e-9
            )


class TestDisciplineProperties:
    @settings(max_examples=60, deadline=None)
    @given(batch=priority_batch(), shuffle=st.randoms(use_true_random=False))
    def test_priority_schedule_invariant_to_submission_order(
        self, batch, shuffle
    ):
        """Distinct priorities + no deps: execution order is the priority
        order, so any submission permutation yields identical records."""
        baseline = EventLoop(disciplines={"only": "priority"}).run(
            TaskGraph(batch)
        )
        shuffled = list(batch)
        shuffle.shuffle(shuffled)
        permuted = EventLoop(disciplines={"only": "priority"}).run(
            TaskGraph(shuffled)
        )
        assert {
            task_id: (record.start, record.end)
            for task_id, record in baseline.items()
        } == {
            task_id: (record.start, record.end)
            for task_id, record in permuted.items()
        }

    @settings(max_examples=60, deadline=None)
    @given(works=st.lists(st.floats(0.0, 2.0), min_size=1, max_size=12),
           priorities=st.lists(st.integers(0, 5), min_size=12, max_size=12))
    def test_fifo_equals_priority_on_chains(self, works, priorities):
        """A pure chain admits exactly one ready task at a time, so the
        scheduling discipline cannot change the records."""
        tasks = [
            Task(f"t{idx}", "only", work,
                 deps=(f"t{idx - 1}",) if idx else (),
                 priority=priorities[idx])
            for idx, work in enumerate(works)
        ]
        fifo = EventLoop(disciplines={"only": "fifo"}).run(TaskGraph(tasks))
        prio = EventLoop(disciplines={"only": "priority"}).run(TaskGraph(tasks))
        for task in tasks:
            assert fifo[task.task_id].start == prio[task.task_id].start
            assert fifo[task.task_id].end == prio[task.task_id].end

    @settings(max_examples=40, deadline=None)
    @given(graph=random_graph(),
           discipline=st.sampled_from(("fifo", "priority")))
    def test_determinism(self, graph, discipline):
        first = EventLoop(disciplines=on_every(discipline)).run(graph)
        second = EventLoop(disciplines=on_every(discipline)).run(graph)
        assert {
            task_id: (record.start, record.end)
            for task_id, record in first.items()
        } == {
            task_id: (record.start, record.end)
            for task_id, record in second.items()
        }


# -- bit-identity with the reference loop ------------------------------

TWO_PAIRS = {("alpha", "beta"): 0.25, ("beta", "gamma"): 0.5}


@st.composite
def tangled_graph(draw):
    """Dependencies on *any* task (later ones and itself included): cycles
    and FIFO heads blocked forever are common, so many runs deadlock."""
    count = draw(st.integers(1, 8))
    ids = [f"t{idx}" for idx in range(count)]
    return TaskGraph(
        Task(
            task_id=task_id,
            stream=draw(st.sampled_from(RESOURCES)),
            work=draw(WORK),
            deps=tuple(draw(st.lists(st.sampled_from(ids), max_size=2))),
            priority=draw(st.integers(0, 3)),
            start_after=draw(st.sampled_from((0.0, 0.5))),
        )
        for task_id in ids
    )


@st.composite
def simulator_graph(draw):
    """The shape of a simulated iteration: a long chain on ``alpha`` (FF and
    BP on ``gpu_main``) with zero-work tasks in it, side tasks on ``beta`` /
    ``gamma`` fed by chain tasks and now and then feeding one back, and a
    few gates. One lane runs alone for most of the run, so the loop's solo
    stretch starts, is cut short and resumes many times per graph."""
    tasks = []
    side_ids = []
    previous = ()
    for idx in range(draw(st.integers(10, 60))):
        deps = previous
        if side_ids and draw(st.integers(0, 9)) == 0:
            deps += (draw(st.sampled_from(side_ids)),)
        zero = draw(st.integers(0, 7)) == 0
        chain_id = f"c{idx}"
        tasks.append(Task(
            chain_id, "alpha", 0.0 if zero else draw(st.floats(0.01, 2.0)),
            deps=deps, contends=draw(st.booleans()),
            priority=draw(st.integers(0, 3)),
        ))
        previous = (chain_id,)
        if draw(st.integers(0, 3)) == 0:
            side_id = f"s{len(side_ids)}"
            tasks.append(Task(
                side_id, draw(st.sampled_from(("beta", "gamma"))), draw(WORK),
                deps=(chain_id,), contends=draw(st.booleans()),
                priority=draw(st.integers(0, 3)),
            ))
            side_ids.append(side_id)
    for pos in draw(st.lists(st.integers(0, len(tasks) - 1), max_size=3)):
        tasks[pos] = replace(tasks[pos], start_after=draw(st.floats(0.5, 30.0)))
    return TaskGraph(tasks)


def outcome(loop, graph):
    """Hex records in submission order, or the error the run raised."""
    try:
        records = loop.run(graph)
    except ValueError as error:
        return str(error)
    return [
        (task_id, record.start.hex(), record.end.hex())
        for task_id, record in records.items()
    ]


def both_loops(**kwargs):
    return (
        EventLoop(resources=ResourceModel(TWO_PAIRS), **kwargs),
        ReferenceEventLoop(resources=ResourceModel(TWO_PAIRS), **kwargs),
    )


DISCIPLINE_ASSIGNMENTS = {
    "fifo": {},
    "priority": {"disciplines": on_every("priority")},
    "mixed": {"disciplines": {"alpha": "priority", "gamma": "fifo"}},
}


class TestBitIdenticalToReferenceLoop:
    @settings(max_examples=150, deadline=None)
    @given(graph=random_graph(),
           assignment=st.sampled_from(sorted(DISCIPLINE_ASSIGNMENTS)))
    def test_records_equal_as_hex(self, graph, assignment):
        new, reference = both_loops(**DISCIPLINE_ASSIGNMENTS[assignment])
        assert outcome(new, graph) == outcome(reference, graph)

    @settings(max_examples=150, deadline=None)
    @given(graph=simulator_graph(),
           assignment=st.sampled_from(sorted(DISCIPLINE_ASSIGNMENTS)))
    def test_simulator_shaped_records_equal_as_hex(self, graph, assignment):
        new, reference = both_loops(**DISCIPLINE_ASSIGNMENTS[assignment])
        assert outcome(new, graph) == outcome(reference, graph)

    @settings(max_examples=150, deadline=None)
    @given(graph=tangled_graph(),
           assignment=st.sampled_from(sorted(DISCIPLINE_ASSIGNMENTS)))
    def test_deadlocks_raise_the_same_message(self, graph, assignment):
        new, reference = both_loops(**DISCIPLINE_ASSIGNMENTS[assignment])
        expected = outcome(reference, graph)
        assert outcome(new, graph) == expected
        if isinstance(expected, str):
            assert expected.startswith("deadlock: no runnable task among [")

    def test_cycle_and_blocked_fifo_head_messages(self):
        cycle = [Task("a", "alpha", 1.0, deps=("b",)),
                 Task("b", "beta", 1.0, deps=("a",)),
                 Task("c", "gamma", 1.0)]
        # "late" is submitted ahead of the task it waits for, on one FIFO.
        blocked = [Task("late", "alpha", 1.0, deps=("early",)),
                   Task("early", "alpha", 1.0)]
        # Rejected before the loop runs: validation is part of compiling.
        unknown = [Task("a", "alpha", 1.0),
                   Task("b", "beta", 1.0, deps=("a", "ghost", "phantom")),
                   Task("c", "gamma", 1.0, deps=("nowhere",))]
        repeated = [Task("a", "alpha", 1.0), Task("b", "beta", 1.0),
                    Task("a", "gamma", 0.0)]
        for tasks, message in (
            (cycle, "deadlock: no runnable task among ['a', 'b']"),
            (blocked, "deadlock: no runnable task among ['late', 'early']"),
            (unknown, "task 'b' depends on unknown 'ghost'"),
            (TaskGraph(unknown), "task 'b' depends on unknown 'ghost'"),
            (repeated, "duplicate task id 'a'"),
        ):
            for loop in both_loops():
                with pytest.raises(ValueError) as raised:
                    loop.run(tasks)
                assert str(raised.value) == message
        # The priority discipline is not head-of-line blocked.
        for loop in both_loops(disciplines=on_every("priority")):
            assert set(loop.run(blocked)) == {"late", "early"}

    def test_pick_from_a_progressing_pass_is_not_pinned(self):
        """``low`` is the only ready task of ``alpha`` when the pass polls
        it, then ``beta``'s zero-work ``unlock`` completes in the same pass
        and releases ``high`` at the same instant: ``high`` must run first."""
        tasks = [
            Task("low", "alpha", 1.0, priority=0),
            Task("high", "alpha", 2.0, deps=("unlock",), priority=9),
            Task("unlock", "beta", 0.0),
        ]
        for loop in both_loops(disciplines=on_every("priority")):
            records = loop.run(tasks)
            assert (records["high"].start, records["high"].end) == (0.0, 2.0)
            assert (records["low"].start, records["low"].end) == (2.0, 3.0)
