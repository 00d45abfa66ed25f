"""Unit tests of the repro.sched core: graph transforms, resource model,
disciplines, topology builders and Gantt rows.

The crossover-reproduction test is the tentpole acceptance criterion: the
task-DAG model over the scheduler core must reproduce the analytic
flat/hierarchical all-reduce times — and hence the crossover point — that
:mod:`repro.comm.topology` prices.
"""

import pytest

from repro.comm.cost_model import ETHERNET_10G, INFINIBAND_100G
from repro.comm.topology import (
    NVLINK2,
    PCIE3_X16,
    ClusterTopology,
    crossover_bytes,
    flat_allreduce_time,
    hierarchical_allreduce_time,
)
from repro.sched import (
    EventLoop,
    ResourceModel,
    Task,
    TaskGraph,
    build_allreduce_graph,
    simulate_allreduce_makespan,
)

TOPOLOGY = ClusterTopology(
    num_nodes=4, gpus_per_node=4,
    intra_link=NVLINK2, inter_link=ETHERNET_10G,
)


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


class TestTopologyBuilders:
    @pytest.mark.parametrize("nodes, scheme, expected", [
        (2, "flat", [
            ("flat_rs[n0]", "node0:nic", 0.005509831304347826, ()),
            ("flat_rs[n1]", "node1:nic", 0.005509831304347826, ()),
            ("flat_ag[n0]", "node0:nic", 0.005509831304347826,
             ("flat_rs[n0]", "flat_rs[n1]")),
            ("flat_ag[n1]", "node1:nic", 0.005509831304347826,
             ("flat_rs[n0]", "flat_rs[n1]")),
        ]),
        (2, "hierarchical", [
            ("hier_rs[n0]", "node0:intra", 0.00010785760000000001, ()),
            ("hier_rs[n1]", "node1:intra", 0.00010785760000000001, ()),
            ("hier_inter[n0]", "node0:nic", 0.007320441739130434,
             ("hier_rs[n0]", "hier_rs[n1]")),
            ("hier_inter[n1]", "node1:nic", 0.007320441739130434,
             ("hier_rs[n0]", "hier_rs[n1]")),
            ("hier_ag[n0]", "node0:intra", 0.00010785760000000001,
             ("hier_inter[n0]",)),
            ("hier_ag[n1]", "node1:intra", 0.00010785760000000001,
             ("hier_inter[n1]",)),
        ]),
        (4, "flat",
         [(f"flat_rs[n{i}]", f"node{i}:nic", 0.007033539130434783, ())
          for i in range(4)]
         + [(f"flat_ag[n{i}]", f"node{i}:nic", 0.007033539130434783,
             tuple(f"flat_rs[n{j}]" for j in range(4)))
            for i in range(4)]),
        (4, "hierarchical",
         [(f"hier_rs[n{i}]", f"node{i}:intra", 0.0001662864, ())
          for i in range(4)]
         + [(f"hier_inter[n{i}]", f"node{i}:nic", 0.011019662608695652,
             tuple(f"hier_rs[n{j}]" for j in range(4)))
            for i in range(4)]
         + [(f"hier_ag[n{i}]", f"node{i}:intra", 0.0001662864,
             (f"hier_inter[n{i}]",))
            for i in range(4)]),
    ])
    def test_graph_pins_every_task_to_its_node(self, nodes, scheme, expected):
        """Each phase runs on its own node's link, in submission order:
        ``(task_id, stream, work, deps, tag, contends)`` of every task of
        one 8 MiB all-reduce on an ``nodes`` x ``nodes`` NVLink / 10GbE
        cluster."""
        topology = ClusterTopology(
            num_nodes=nodes, gpus_per_node=nodes,
            intra_link=NVLINK2, inter_link=ETHERNET_10G,
        )
        graph = build_allreduce_graph(8 * 1024 * 1024, topology, scheme)
        assert [
            (t.task_id, t.stream, t.work, t.deps, t.tag, t.contends)
            for t in graph.tasks
        ] == [(*row, "comm", False) for row in expected]

    def test_flat_graph_matches_analytic(self):
        nbytes = 8 * 1024 * 1024
        makespan = simulate_allreduce_makespan(nbytes, TOPOLOGY, "flat")
        expected = flat_allreduce_time(nbytes, TOPOLOGY)
        assert makespan == pytest.approx(expected, rel=1e-9)

    def test_hierarchical_graph_matches_analytic(self):
        nbytes = 8 * 1024 * 1024
        makespan = simulate_allreduce_makespan(
            nbytes, TOPOLOGY, "hierarchical"
        )
        expected = hierarchical_allreduce_time(nbytes, TOPOLOGY)
        assert makespan == pytest.approx(expected, rel=1e-9)

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            build_allreduce_graph(1024, TOPOLOGY, scheme="mesh")

    def test_crossover_reproduced_by_task_dag(self):
        """Acceptance: the scheduler-core DAG model reproduces the
        analytic crossover point between flat and hierarchical
        (hierarchical wins below it — start-up bound — flat above)."""
        topology = ClusterTopology(
            num_nodes=4, gpus_per_node=4,
            intra_link=PCIE3_X16, inter_link=INFINIBAND_100G,
        )
        analytic = crossover_bytes(topology)
        assert 1024 < analytic < 1e9  # a real interior crossover
        for factor, faster in ((0.25, "hierarchical"), (4.0, "flat")):
            nbytes = analytic * factor
            flat = simulate_allreduce_makespan(nbytes, topology, "flat")
            hier = simulate_allreduce_makespan(
                nbytes, topology, "hierarchical"
            )
            winner = "hierarchical" if hier < flat else "flat"
            assert winner == faster, (
                f"at {factor}x crossover the DAG model says {winner}, "
                f"the analytic model says {faster}"
            )
        # And near the crossover the two schemes price within a few
        # percent of each other — the DAG model sits on the same curves.
        flat = simulate_allreduce_makespan(analytic, topology, "flat")
        hier = simulate_allreduce_makespan(analytic, topology,
                                           "hierarchical")
        assert hier == pytest.approx(flat, rel=0.05)


class TestHierarchicalGantt:
    def test_trace_renders_per_node_rows(self):
        """Satellite: gantt rows generalize beyond the legacy trio."""
        from repro.sim.gantt import render_gantt

        topology = ClusterTopology(num_nodes=2, gpus_per_node=2)
        graph = build_allreduce_graph(32 * 1024 * 1024, topology)
        records = EventLoop().run(graph)
        chart = render_gantt(records, width=60)
        for row in ("node0:intra", "node1:intra", "node0:nic", "node1:nic"):
            assert row in chart
        assert "=" in chart  # comm tasks render as '='

