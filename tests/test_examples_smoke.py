"""Smoke-run the fast examples as subprocesses (library-consumer view)."""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def _run(script: str, *args: str, timeout: int = 240) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / script), *args],
        capture_output=True, text=True, timeout=timeout,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


class TestFastExamples:
    def test_timeline_trace(self, tmp_path):
        out = _run("timeline_trace.py", "ResNet-18", str(tmp_path))
        assert "acpsgd" in out
        assert (tmp_path / "ResNet-18_acpsgd.json").exists()

    def test_cluster_planning(self):
        out = _run("cluster_planning.py", "ResNet-50")
        assert "recommendation" in out
        assert "10GbE" in out

    def test_paper_evaluation_fast(self):
        out = _run("paper_evaluation.py", "--fast", timeout=420)
        assert "Table III" in out
        assert "ACP-SGD mean speedups" in out

    def test_buffer_size_sweep(self):
        out = _run("buffer_size_sweep.py", "--steps", "3")
        assert "MATCH bit-exactly" in out
        assert "monolithic" in out  # the fallback point is in the table

    def test_hierarchical_allreduce(self):
        out = _run("hierarchical_allreduce.py")
        assert "MATCH bit-exactly" in out
        assert "analytic crossover" in out

    @pytest.mark.serve
    def test_capacity_planning(self):
        out = _run("capacity_planning.py", "--queries", "24")
        assert "MATCH bit-exactly" in out
        assert "simulator runs" in out
        assert "recomputed (stale entry dropped)" in out

    @pytest.mark.faults
    def test_fault_tolerance(self):
        out = _run("fault_tolerance.py", "--epochs", "1", "--steps", "4")
        assert "MATCH bit-exactly" in out
        assert "collective calls" in out  # the resilience report printed
        assert "slowdown" in out  # the sim comparison printed

    @pytest.mark.faults
    def test_elastic_training(self):
        out = _run("elastic_training.py", "--epochs", "1", "--steps", "10")
        assert "MATCH bit-exactly" in out
        assert "rejoin" in out and "join" in out  # roster changes printed
        assert "admission" in out  # the sim churn trace printed

    @pytest.mark.gossip
    def test_gossip_training(self):
        out = _run("gossip_training.py", "--windows", "10")
        assert "QUARANTINED" in out  # the trust table printed
        assert "honest replicas bit-identical (incl. joiner): True" in out
        assert "seeded replay bit-identical: True" in out
