"""Trace export and buffer auto-tuning."""

import json

import pytest

from repro.models import get_model_spec
from repro.sim import (
    ClusterSpec,
    SystemConfig,
    autotune_buffer_size,
    build_iteration_graph,
    simulate_iteration,
    simulate_iteration_records,
    to_chrome_trace,
    write_chrome_trace,
)
from repro.sim.engine import GPU_MAIN, NIC


@pytest.fixture(scope="module")
def resnet18():
    return get_model_spec("ResNet-18")


class TestBuildTasks:
    def test_graph_structure_ssgd(self, resnet18):
        tasks = build_iteration_graph("ssgd", resnet18, batch_size=32)
        streams = {t.stream for t in tasks}
        assert streams == {GPU_MAIN, NIC}
        tags = {t.tag for t in tasks}
        assert {"forward", "backward", "comm"} <= tags

    def test_acp_parities_differ(self, resnet18):
        p_tasks = build_iteration_graph("acpsgd", resnet18, rank=4,
                                        acp_parity_p=True)
        q_tasks = build_iteration_graph("acpsgd", resnet18, rank=4,
                                        acp_parity_p=False)
        p_comm = sum(t.work for t in p_tasks if t.tag == "comm")
        q_comm = sum(t.work for t in q_tasks if t.tag == "comm")
        assert p_comm != pytest.approx(q_comm)

    def test_unknown_method(self, resnet18):
        with pytest.raises(ValueError, match="unknown"):
            build_iteration_graph("magic", resnet18)


class TestTrace:
    def test_chrome_trace_document(self, resnet18):
        records = simulate_iteration_records("acpsgd", resnet18,
                                             batch_size=32, rank=4)
        doc = to_chrome_trace(records)
        events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(events) > 50
        for event in events:
            assert event["dur"] > 0
            assert event["ts"] >= 0
        # Timeline sorted and consistent with the breakdown makespan.
        ts = [e["ts"] for e in events]
        assert ts == sorted(ts)
        makespan = max(e["ts"] + e["dur"] for e in events) / 1e6
        bd = simulate_iteration_records("acpsgd", resnet18, batch_size=32, rank=4)
        assert makespan == pytest.approx(max(r.end for r in bd.values()))

    def test_metadata_rows(self, resnet18):
        records = simulate_iteration_records("ssgd", resnet18, batch_size=32)
        doc = to_chrome_trace(records)
        names = {
            e["args"]["name"] for e in doc["traceEvents"] if e["ph"] == "M"
        }
        assert {"gpu_main", "gpu_side", "nic"} == names

    def test_write_file(self, resnet18, tmp_path):
        records = simulate_iteration_records("powersgd_star", resnet18,
                                             batch_size=32, rank=4)
        path = tmp_path / "trace.json"
        write_chrome_trace(records, str(path))
        with open(path) as handle:
            doc = json.load(handle)
        assert "traceEvents" in doc


class TestAutotune:
    def test_finds_a_competitive_buffer(self, resnet18):
        cluster = ClusterSpec(32)
        result = autotune_buffer_size(
            "acpsgd", resnet18, cluster=cluster, rank=4, batch_size=16,
            coarse_mb=(0.25, 1, 4, 16, 64), refine_rounds=2,
        )
        # Tuned result must beat (or tie) the extreme candidates probed.
        worst = max(result.evaluated.values())
        assert result.best_time <= worst
        default = simulate_iteration(
            "acpsgd", resnet18, cluster=cluster, rank=4, batch_size=16,
        ).total
        assert result.best_time <= default * 1.02

    def test_refinement_adds_probes(self, resnet18):
        coarse = autotune_buffer_size(
            "ssgd", resnet18, batch_size=16, coarse_mb=(1, 16), refine_rounds=0,
        )
        refined = autotune_buffer_size(
            "ssgd", resnet18, batch_size=16, coarse_mb=(1, 16), refine_rounds=2,
        )
        assert len(refined.evaluated) > len(coarse.evaluated)
        assert refined.best_time <= coarse.best_time

    def test_topk_ratio_reaches_every_probe(self, resnet18):
        for ratio in (0.001, 0.02):
            result = autotune_buffer_size(
                "randomk", resnet18, batch_size=16, coarse_mb=(1, 16),
                refine_rounds=0, topk_ratio=ratio,
            )
            for buffer_bytes, seconds in result.evaluated.items():
                assert seconds == simulate_iteration(
                    "randomk", resnet18, batch_size=16, topk_ratio=ratio,
                    system=SystemConfig(buffer_bytes=buffer_bytes),
                ).total

    def test_validation(self, resnet18):
        with pytest.raises(ValueError, match="candidate"):
            autotune_buffer_size("ssgd", resnet18, coarse_mb=())

    def test_result_helpers(self, resnet18):
        result = autotune_buffer_size(
            "ssgd", resnet18, batch_size=16, coarse_mb=(1, 4), refine_rounds=0,
        )
        assert result.best_buffer_mb == pytest.approx(
            result.best_buffer_bytes / (1024 * 1024)
        )
