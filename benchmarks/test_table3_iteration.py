"""Bench T3 — Table III: iteration time of S-SGD / Power-SGD / Power-SGD* /
ACP-SGD, with the paper's headline speedups."""

from benchmarks.conftest import run_once
from repro.experiments import run_table3
from repro.experiments import table3
from repro.experiments.table3 import render_with_std, run_table3_with_std


def test_table3(benchmark):
    rows = run_once(benchmark, run_table3)
    print("\n=== Table III: average iteration time (ms) ===")
    print(table3.render(rows))


def test_table3_with_std(benchmark):
    """The paper's own mean +/- std presentation (jittered replays)."""
    rows = run_once(benchmark, run_table3_with_std)
    print("\n=== Table III (mean +/- std over jittered iterations) ===")
    print(render_with_std(rows))
    assert len(rows) == 4
