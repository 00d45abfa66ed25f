"""Bench F12 — Fig. 12: scaling from 8 to 64 GPUs."""

from benchmarks.conftest import run_once
from repro.experiments import run_fig12
from repro.experiments import fig12


def test_fig12(benchmark):
    rows = run_once(benchmark, run_fig12)
    print("\n=== Fig. 12: effect of the number of GPUs (BERT-Base) ===")
    print(fig12.render(rows))
