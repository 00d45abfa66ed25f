"""Bench F10 — Fig. 10: buffer-size sweep on BERT-Large (ranks 32 / 256)."""

from benchmarks.conftest import run_once
from repro.experiments import run_fig10
from repro.experiments import fig10


def test_fig10(benchmark):
    rows = run_once(benchmark, run_fig10)
    print("\n=== Fig. 10: effect of buffer size (BERT-Large) ===")
    print(fig10.render(rows))
