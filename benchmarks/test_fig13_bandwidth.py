"""Bench F13 — Fig. 13: 1GbE / 10GbE / 100Gb IB on 32 GPUs."""

from benchmarks.conftest import run_once
from repro.experiments import run_fig13
from repro.experiments import fig13


def test_fig13(benchmark):
    rows = run_once(benchmark, run_fig13)
    print("\n=== Fig. 13: effect of network bandwidth (32 GPUs) ===")
    print(fig13.render(rows))
