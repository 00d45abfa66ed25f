"""Bench F11 — Fig. 11: batch-size (ResNet-152) and rank (BERT-Large) sweeps."""

from benchmarks.conftest import run_once
from repro.experiments import run_fig11a, run_fig11b
from repro.experiments import fig11


def test_fig11a_batch_size(benchmark):
    rows = run_once(benchmark, run_fig11a)
    print("\n=== Fig. 11(a): batch-size effect on ResNet-152 ===")
    print(fig11.render_a(rows))


def test_fig11b_rank(benchmark):
    rows = run_once(benchmark, run_fig11b)
    print("\n=== Fig. 11(b): rank effect on BERT-Large ===")
    print(fig11.render_b(rows))
