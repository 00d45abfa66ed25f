"""Bench F2 — Fig. 2: iteration time of the four characterization methods."""

from benchmarks.conftest import run_once
from repro.experiments import run_fig2
from repro.experiments import fig2


def test_fig2(benchmark):
    rows = run_once(benchmark, run_fig2)
    print("\n=== Fig. 2: iteration time, 32 GPUs / 10GbE ===")
    print(fig2.render(rows))
