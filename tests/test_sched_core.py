"""Unit tests of the repro.sched core: graph transforms, resource model,
disciplines and Gantt rows."""

import pytest

from repro.sched import EventLoop, ResourceModel, Task, TaskGraph


class TestTaskGraph:
    def test_duplicate_id_rejected(self):
        tasks = [Task("a", "s", 1.0), Task("b", "s", 1.0), Task("a", "s", 1.0)]
        with pytest.raises(ValueError, match="duplicate task id 'a'"):
            TaskGraph(tasks)

    @pytest.mark.parametrize("field", ["work", "start_after"])
    @pytest.mark.parametrize("value, kind", [
        (float("nan"), "non-finite"),
        (float("inf"), "non-finite"),
        (-1.0, "negative"),
        (float("-inf"), "negative"),
    ])
    def test_non_finite_or_negative_time_rejected(self, field, value, kind):
        """A NaN or infinite ``work`` never completes and a NaN gate never
        opens: two-task graphs with either spun ``Engine().run`` forever."""
        with pytest.raises(
            ValueError, match=f"^task 'b' has {kind} {field} {value}$"
        ):
            EventLoop().run([
                Task("a", "s", 1.0),
                Task("b", "t", **{"work": 1.0, field: value}, deps=("a",)),
            ])

    def test_get_and_contains_read_positions(self):
        tasks = [Task("a", "s", 1.0), Task("b", "t", 2.0, deps=("a",))]
        graph = TaskGraph(tasks)
        assert graph.position == {"a": 0, "b": 1}
        assert graph.get("b") is tasks[1] and graph.get("ghost") is None
        assert "a" in graph and "ghost" not in graph

    def test_unknown_dep_rejected_by_the_event_loop(self):
        graph = TaskGraph([Task("a", "s", 1.0, deps=("ghost",))])
        with pytest.raises(ValueError, match="task 'a' depends on unknown 'ghost'"):
            EventLoop().run(graph)

    def test_prefixed_rewrites_ids_and_deps(self):
        graph = TaskGraph([
            Task("a", "s", 1.0),
            Task("b", "s", 1.0, deps=("a",)),
        ])
        prefixed = graph.prefixed("it0:")
        assert [t.task_id for t in prefixed.tasks] == ["it0:a", "it0:b"]
        assert prefixed.get("it0:b").deps == ("it0:a",)

    def test_with_deps_replaces_and_validates(self):
        graph = TaskGraph([
            Task("a", "s", 1.0),
            Task("b", "s", 1.0, deps=("a",)),
        ])
        rewired = graph.with_deps({"b": ()})
        assert rewired.get("b").deps == ()
        with pytest.raises(ValueError, match="unknown task ids"):
            graph.with_deps({"ghost": ()})

    def test_cycle_detected(self):
        """A dependency cycle is the event loop's deadlock."""
        graph = TaskGraph([
            Task("a", "s", 1.0, deps=("b",)),
            Task("b", "s", 1.0, deps=("a",)),
        ])
        with pytest.raises(ValueError, match="deadlock"):
            EventLoop().run(graph)


class TestResourceModel:
    @staticmethod
    def _active(spec):
        return {
            resource: Task(f"on_{resource}", resource, 1.0, contends=contends)
            for resource, contends in spec.items()
        }

    def test_gpu_contention_pairs(self):
        model = ResourceModel.gpu_contention(0.25)
        rates = model.rates(
            self._active({"gpu_main": True, "gpu_side": True})
        )
        assert rates == {"gpu_main": 0.25, "gpu_side": 0.25}

    def test_non_contending_task_runs_free(self):
        model = ResourceModel.gpu_contention(0.25)
        rates = model.rates(
            self._active({"gpu_main": True, "gpu_side": False})
        )
        assert rates == {"gpu_main": 1.0, "gpu_side": 1.0}

    def test_unrelated_resources_unaffected(self):
        model = ResourceModel({("a", "b"): 0.5})
        rates = model.rates(
            self._active({"a": True, "b": True, "c": True})
        )
        assert rates == {"a": 0.5, "b": 0.5, "c": 1.0}

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError, match="contention_rate"):
            ResourceModel({("a", "b"): 0.0})

    def test_unknown_discipline(self):
        with pytest.raises(
            ValueError, match="unknown discipline 'round-robin' for stream 'nic'"
        ):
            EventLoop(disciplines={"nic": "round-robin"})


class TestHierarchicalGantt:
    def test_trace_renders_per_node_rows(self):
        """Gantt rows follow the resources a graph names, beyond the
        simulator's ``gpu_main`` / ``gpu_side`` / ``nic``: a hand-built
        two-node hierarchical all-reduce (intra-node reduce-scatter, an
        inter-node ring over the NICs, intra-node all-gather) draws one row
        per node link and per NIC."""
        from repro.sim.gantt import render_gantt

        def phase(name, link, deps):
            return [Task(f"{name}[n{i}]", f"node{i}:{link}", 1e-3, deps[i],
                         tag="comm", contends=False)
                    for i in range(2)]

        rs = phase("rs", "intra", [(), ()])
        inter = phase("inter", "nic", [tuple(t.task_id for t in rs)] * 2)
        ag = phase("ag", "intra", [(t.task_id,) for t in inter])
        records = EventLoop().run(TaskGraph(rs + inter + ag))
        chart = render_gantt(records, width=60)
        for row in ("node0:intra", "node1:intra", "node0:nic", "node1:nic"):
            assert row in chart
        assert "=" in chart  # comm tasks render as '='
