"""Bench — per-GPU memory estimates (the §III-B Sign-SGD OOM).

Not a paper table, but the quantitative backing for Fig. 2's "Sign-SGD
runs out of memory" annotation on BERT-Large.
"""

from benchmarks.conftest import run_once
from repro.experiments.common import METHOD_LABELS, TIMING_MODELS, paper_rank
from repro.models import get_model_spec
from repro.sim.memory import GiB, memory_report
from repro.utils import render_table


def _sweep():
    out = []
    for model_name in TIMING_MODELS:
        spec = get_model_spec(model_name)
        report = memory_report(
            spec, spec.default_batch_size, 32, rank=paper_rank(model_name)
        )
        out.append((model_name, report))
    return out


def test_memory_estimates(benchmark):
    results = run_once(benchmark, _sweep)
    print("\n=== Per-GPU memory estimates (32 workers, 11GB cards) ===")
    rows = []
    for model_name, report in results:
        for method, est in report.items():
            rows.append([
                model_name, METHOD_LABELS[method],
                f"{est.total / GiB:.2f}GiB",
                f"{est.activations / GiB:.2f}GiB",
                f"{est.communication_buffers / GiB:.2f}GiB",
                "OOM" if not est.fits() else "ok",
            ])
    print(render_table(
        ["Model", "Method", "total", "activations", "comm buffers", "11GB"],
        rows,
    ))
