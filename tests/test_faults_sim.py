"""Simulator-side fault model: start_after gating, FaultModel, CLI."""

import dataclasses

import numpy as np
import pytest

from repro.cli import main
from repro.models import get_model_spec
from repro.sched import TaskGraph
from repro.sim.engine import Engine, Task
from repro.sim.faults import (
    ChurnEvent,
    FaultModel,
    admission_sync_cost,
    compare_methods_under_faults,
    simulate_elastic_trace,
    simulate_fault_trace,
)
from repro.sim.strategies import ClusterSpec
from repro.sim.variance import _jitter_graph

pytestmark = pytest.mark.faults


class TestStartAfterGate:
    def test_gated_task_starts_exactly_at_gate(self):
        engine = Engine()
        records = engine.run([
            Task("a", "gpu_main", 1.0),
            Task("b", "nic", 2.0, start_after=5.0),
        ])
        assert records["a"].start == 0.0
        assert records["b"].start == pytest.approx(5.0)
        assert records["b"].end == pytest.approx(7.0)

    def test_clock_jumps_when_everything_is_gated(self):
        # No task is runnable at t=0: the engine must jump the clock to the
        # earliest gate instead of declaring a deadlock.
        engine = Engine()
        records = engine.run([
            Task("only", "nic", 1.0, start_after=2.0),
            Task("after", "nic", 1.0, deps=("only",)),
        ])
        assert records["only"].start == pytest.approx(2.0)
        assert records["after"].end == pytest.approx(4.0)

    def test_running_task_does_not_overshoot_a_gate(self):
        # A long task on one stream must not advance time past the moment a
        # gated task on an idle stream becomes eligible.
        engine = Engine()
        records = engine.run([
            Task("long", "gpu_main", 10.0, contends=False),
            Task("gated", "nic", 1.0, start_after=3.0),
        ])
        assert records["gated"].start == pytest.approx(3.0)

    def test_negative_start_after_rejected(self):
        with pytest.raises(ValueError, match="negative start_after"):
            Task("x", "nic", 1.0, start_after=-0.5)

    def test_true_deadlock_still_detected(self):
        engine = Engine()
        with pytest.raises(ValueError, match="deadlock"):
            engine.run([
                Task("a", "nic", 1.0, deps=("b",)),
                Task("b", "nic", 1.0, deps=("a",)),
            ])


class TestFaultModel:
    def test_parameters_validated(self):
        with pytest.raises(ValueError, match="straggler_prob"):
            FaultModel(straggler_prob=1.2)
        with pytest.raises(ValueError, match="drop_rate"):
            FaultModel(drop_rate=1.0)  # geometric needs < 1
        with pytest.raises(ValueError, match="rank_down_s"):
            FaultModel(rank_down_s=-1.0)

    def test_no_faults_is_identity(self):
        tasks = [Task("c", "gpu_main", 1.0, tag="forward"),
                 Task("n", "nic", 2.0, tag="comm")]
        out = FaultModel().perturb_graph(
            TaskGraph(tasks), 8, np.random.default_rng(0)
        ).tasks
        assert [t.work for t in out] == [1.0, 2.0]
        assert all(t.start_after == 0.0 for t in out)

    def test_straggler_scales_compute_not_comm(self):
        tasks = [Task("fwd", "gpu_main", 1.0, tag="forward"),
                 Task("bwd", "gpu_main", 2.0, tag="backward"),
                 Task("cmp", "gpu_main", 0.5, tag="compression"),
                 Task("net", "nic", 3.0, tag="comm")]
        model = FaultModel(straggler_prob=1.0, straggler_sigma=3.0)
        out = model.perturb_graph(TaskGraph(tasks), 4, np.random.default_rng(1))
        slowdown = out.get("fwd").work / 1.0
        assert slowdown > 1.0
        # One slowdown for the whole iteration: the slowest rank gates all.
        assert out.get("bwd").work == pytest.approx(2.0 * slowdown)
        assert out.get("cmp").work == pytest.approx(0.5 * slowdown)
        assert out.get("net").work == pytest.approx(3.0)

    def test_drops_inflate_comm_work(self):
        tasks = [Task("net", "nic", 1.0, tag="comm")]
        model = FaultModel(drop_rate=0.9, retry_timeout_s=0.25)
        out = model.perturb_graph(
            TaskGraph(tasks), 4, np.random.default_rng(0)
        ).tasks[0]
        # Each retransmission costs a full resend plus the timeout.
        retries = round((out.work - 1.0) / (1.0 + 0.25))
        assert 1 <= retries <= 10
        assert out.work == pytest.approx(1.0 + retries * 1.25)

    def test_rank_down_gates_comm_start(self):
        tasks = [Task("net", "nic", 1.0, tag="comm"),
                 Task("fwd", "gpu_main", 1.0, tag="forward")]
        model = FaultModel(rank_down_s=0.5)
        out = model.perturb_graph(TaskGraph(tasks), 4, np.random.default_rng(0))
        assert out.get("net").start_after == pytest.approx(0.5)
        assert out.get("fwd").start_after == 0.0  # compute proceeds locally

    def test_perturb_is_deterministic(self):
        tasks = [Task(f"t{i}", "nic", 1.0, tag="comm") for i in range(20)]
        model = FaultModel(straggler_prob=0.3, drop_rate=0.3)
        graph = TaskGraph(tasks)
        a = model.perturb_graph(graph, 8, np.random.default_rng(7))
        b = model.perturb_graph(graph, 8, np.random.default_rng(7))
        assert [t.work for t in a] == [t.work for t in b]


@dataclasses.dataclass
class _NotedTask(Task):
    """A ``Task`` with a field no perturbation was written to know about."""

    note: str = ""


#: name -> (graph perturbation, the fields it is allowed to change).
_PERTURBATIONS = {
    "fault": (
        lambda graph: FaultModel(
            straggler_prob=1.0, drop_rate=0.5, rank_down_s=0.5,
            worker_crash_prob=1.0,
        ).perturb_graph(graph, 4, np.random.default_rng(0)),
        {"work", "start_after"},
    ),
    "jitter": (
        lambda graph: _jitter_graph(graph, np.random.default_rng(0), 0.1),
        {"work"},
    ),
}


class TestPerturbationsOwnOnlyTheirFields:
    """A perturbed replay must carry every other ``Task`` field through —
    including fields added to ``Task`` after the perturbation was written."""

    @pytest.mark.parametrize(
        "field", [field.name for field in dataclasses.fields(_NotedTask)])
    @pytest.mark.parametrize("name", sorted(_PERTURBATIONS))
    def test_field_survives_or_is_owned(self, name, field):
        perturb, owned = _PERTURBATIONS[name]
        tasks = [
            _NotedTask("c", "gpu_side", 1.0, tag="compression", contends=False,
                       priority=3, start_after=0.25, note="keep"),
            _NotedTask("n", "nic", 2.0, deps=("c",), tag="comm", contends=False,
                       priority=7, start_after=0.125, note="me"),
        ]
        before = [getattr(task, field) for task in tasks]
        after = [getattr(task, field) for task in perturb(TaskGraph(tasks))]
        if field in owned:
            assert after != before
        else:
            assert after == before


class TestFaultTraces:
    @pytest.fixture(scope="class")
    def spec(self):
        return get_model_spec("ResNet-50")

    def test_trace_is_reproducible(self, spec):
        model = FaultModel(straggler_prob=0.2, drop_rate=0.05)
        kwargs = dict(cluster=ClusterSpec(world_size=4), iterations=6, seed=3)
        first = simulate_fault_trace("acpsgd", spec, model, **kwargs)
        second = simulate_fault_trace("acpsgd", spec, model, **kwargs)
        assert first.samples == second.samples
        assert first.clean_time == second.clean_time

    def test_faults_never_speed_things_up(self, spec):
        model = FaultModel(straggler_prob=0.3, straggler_sigma=2.0,
                           drop_rate=0.05)
        trace = simulate_fault_trace(
            "ssgd", spec, model, cluster=ClusterSpec(world_size=4),
            iterations=8, seed=0,
        )
        assert trace.mean >= trace.clean_time
        assert trace.worst >= trace.p95 >= 0
        assert trace.slowdown >= 1.0
        assert "slowdown" in trace.render()

    def test_compression_pays_fewer_retransmits(self, spec):
        # Drops only: S-SGD's full-gradient volume suffers more than
        # ACP-SGD's two small factors.
        model = FaultModel(drop_rate=0.2, retry_timeout_s=0.01)
        traces = compare_methods_under_faults(
            ("acpsgd", "ssgd"), spec, model,
            cluster=ClusterSpec(world_size=4), iterations=10, seed=1,
        )
        assert set(traces) == {"acpsgd", "ssgd"}
        assert traces["acpsgd"].mean < traces["ssgd"].mean

    def test_fault_free_model_reproduces_clean_time(self, spec):
        trace = simulate_fault_trace(
            "ssgd", spec, FaultModel(), cluster=ClusterSpec(world_size=4),
            iterations=4, seed=0,
        )
        assert trace.slowdown == pytest.approx(1.0)


class TestElasticTimeline:
    def _spec(self):
        return get_model_spec("ResNet-50")

    def test_phases_follow_the_schedule(self):
        cluster = ClusterSpec(world_size=4)
        trace = simulate_elastic_trace(
            "ssgd", self._spec(),
            schedule=[ChurnEvent(iteration=5, world_size=3),
                      ChurnEvent(iteration=9, world_size=5)],
            iterations=12, cluster=cluster, batch_size=16,
        )
        assert [p.world_size for p in trace.phases] == [4, 3, 5]
        assert [p.start_iteration for p in trace.phases] == [1, 5, 9]
        assert [p.iterations for p in trace.phases] == [4, 4, 4]
        assert trace.total_time_s > 0

    def test_scale_up_pays_admission_cost_shrink_does_not(self):
        cluster = ClusterSpec(world_size=4)
        spec = self._spec()
        trace = simulate_elastic_trace(
            "acpsgd", spec,
            schedule=[ChurnEvent(iteration=4, world_size=3),
                      ChurnEvent(iteration=8, world_size=5)],
            iterations=10, cluster=cluster, batch_size=16,
        )
        shrink, grow = trace.phases[1], trace.phases[2]
        assert shrink.admission_cost_s == 0.0
        # 3 -> 5 admits two ranks: two state syncs.
        import dataclasses
        sized = dataclasses.replace(cluster, world_size=5)
        assert grow.admission_cost_s == pytest.approx(
            2 * admission_sync_cost(spec, sized)
        )
        assert trace.admission_overhead_s == grow.admission_cost_s
        assert "admission" in trace.render()

    def test_churn_beyond_run_rejected(self):
        with pytest.raises(ValueError, match="beyond"):
            simulate_elastic_trace(
                "ssgd", self._spec(),
                schedule=[ChurnEvent(iteration=99, world_size=2)],
                iterations=10, cluster=ClusterSpec(world_size=4),
                batch_size=16,
            )

    def test_event_validation(self):
        with pytest.raises(ValueError, match="1-based"):
            ChurnEvent(iteration=0, world_size=2)
        with pytest.raises(ValueError, match="world_size"):
            ChurnEvent(iteration=1, world_size=0)

    def test_same_size_event_changes_nothing_but_splits_phase(self):
        cluster = ClusterSpec(world_size=4)
        trace = simulate_elastic_trace(
            "ssgd", self._spec(),
            schedule=[ChurnEvent(iteration=6, world_size=4)],
            iterations=10, cluster=cluster, batch_size=16,
        )
        assert [p.world_size for p in trace.phases] == [4, 4]
        assert trace.phases[0].iteration_time_s == pytest.approx(
            trace.phases[1].iteration_time_s
        )
        assert trace.phases[1].admission_cost_s == 0.0


class TestFaultsCli:
    def test_elastic_cli_demo(self, capsys):
        code = main([
            "elastic", "--method", "ssgd", "--workers", "3",
            "--epochs", "1", "--steps-per-epoch", "8",
            "--samples", "120", "--batch-size", "8",
            "--fail-call", "2", "--rejoin-call", "5", "--join-call", "7",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "membership" in out
        assert "rejoin" in out and "join" in out
        assert "world-size timeline" in out

    def test_faults_command_renders_comparison(self, capsys):
        code = main([
            "faults", "--model", "ResNet-50", "--methods", "acpsgd,ssgd",
            "--gpus", "4", "--rank", "4", "--batch-size", "16",
            "--straggler-prob", "0.1", "--drop-rate", "0.02",
            "--iterations", "4", "--seed", "0",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "acpsgd" in out and "ssgd" in out
        assert "slowdown" in out and "clean" in out

    def test_unknown_method_rejected(self, capsys):
        assert main(["faults", "--methods", "magic", "--iterations", "2"]) == 2
        assert capsys.readouterr().err.startswith(
            "repro faults: error: unknown method 'magic'"
        )

    def test_resilient_training_cli(self, capsys):
        code = main([
            "train", "--method", "ssgd", "--workers", "2",
            "--epochs", "1", "--steps-per-epoch", "2",
            "--samples", "120", "--batch-size", "8",
            "--resilient", "--drop-rate", "0.05", "--fault-seed", "3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "communication resilience" in out
        assert "collective calls" in out
        assert "trainer resilience" in out
