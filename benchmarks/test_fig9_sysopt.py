"""Bench F9 — Fig. 9: Naive / +WFBP / +WFBP+TF for each method."""

from benchmarks.conftest import run_once
from repro.experiments import run_fig9
from repro.experiments import fig9


def test_fig9(benchmark):
    rows = run_once(benchmark, run_fig9)
    print("\n=== Fig. 9: benefits of system optimizations ===")
    print(fig9.render(rows))
