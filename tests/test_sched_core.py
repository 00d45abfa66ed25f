"""Unit tests of the repro.sched core: graph transforms, resource model,
placement schedulers, topology builders, Gantt rows, and the bench.

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
    LeastLoadedPlacement,
    ResourceModel,
    ResourcePool,
    Task,
    TaskGraph,
    TopologyPlacement,
    build_allreduce_graph,
    node_pools,
    resolve_discipline,
    simulate_allreduce_makespan,
)

TOPOLOGY = ClusterTopology(
    num_nodes=4, gpus_per_node=4,
    intra_link=NVLINK2, inter_link=ETHERNET_10G,
)


class TestTaskGraph:
    def test_duplicate_id_rejected(self):
        graph = TaskGraph([Task("a", "s", 1.0)])
        with pytest.raises(ValueError, match="duplicate task id"):
            graph.add(Task("a", "s", 1.0))

    def test_unknown_dep_rejected_by_validate(self):
        graph = TaskGraph([Task("a", "s", 1.0, deps=("ghost",))])
        with pytest.raises(ValueError, match="unknown"):
            graph.validate()

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

    def test_merged_and_resources_order(self):
        left = TaskGraph([Task("a", "x", 1.0)])
        right = TaskGraph([Task("b", "y", 1.0), Task("c", "x", 1.0)])
        merged = left.merged(right)
        assert len(merged) == 3
        assert merged.resources() == ("x", "y")

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

    def test_pool_validation(self):
        with pytest.raises(ValueError):
            ResourcePool("p", ())
        with pytest.raises(ValueError):
            ResourcePool("p", ("m", "m"))

    def test_unknown_discipline(self):
        with pytest.raises(ValueError, match="unknown discipline"):
            resolve_discipline("round-robin", "nic")


class TestPlacement:
    def test_least_loaded_balances_work(self):
        pool = ResourcePool("intra", ("m0", "m1"))
        graph = TaskGraph([
            Task("a", "intra", 3.0),
            Task("b", "intra", 1.0),
            Task("c", "intra", 1.0),
        ])
        placed = LeastLoadedPlacement().assign(graph, (pool,))
        streams = [t.stream for t in placed.tasks]
        assert set(streams) == {"m0", "m1"}
        # a -> m0 (3.0), b -> m1 (1.0), c -> m1 (still least loaded)
        assert streams == ["m0", "m1", "m1"]

    def test_topology_placement_honours_hints(self):
        topology = ClusterTopology(num_nodes=2, gpus_per_node=2)
        pools = node_pools(topology)
        graph = TaskGraph([
            Task("a", "intra", 1.0),
            Task("b", "intra", 1.0),
        ])
        placed = TopologyPlacement(topology, {"a": 1, "b": 0}).assign(
            graph, pools
        )
        assert placed.get("a").stream == "node1:intra"
        assert placed.get("b").stream == "node0:intra"

    def test_topology_placement_rejects_bad_hint(self):
        topology = ClusterTopology(num_nodes=2, gpus_per_node=2)
        graph = TaskGraph([Task("a", "intra", 1.0)])
        with pytest.raises(ValueError):
            TopologyPlacement(topology, {"a": 9}).assign(
                graph, node_pools(topology)
            )


class TestTopologyBuilders:
    def test_node_pools_shape(self):
        pools = node_pools(TOPOLOGY)
        by_name = {pool.name: pool for pool in pools}
        assert set(by_name) == {"intra", "nic"}
        assert by_name["intra"].members == tuple(
            f"node{i}:intra" for i in range(4)
        )

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

