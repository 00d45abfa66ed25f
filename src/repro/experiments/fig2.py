"""Fig. 2: iteration time of S-SGD, Sign-SGD, Top-k SGD, Power-SGD.

32 GPUs on 10GbE, the paper's batch sizes and compression settings
(Sign 32x, Top-k 0.1%, Power-SGD r=4 for ResNets / r=32 for BERTs).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.experiments.common import (
    METHOD_LABELS,
    TIMING_MODELS,
    format_rows,
    paper_rank,
    timing_specs,
)
from repro.sim.strategies import ClusterSpec, simulate_iteration

FIG2_METHODS = ("ssgd", "signsgd", "topk", "powersgd")

@dataclass(frozen=True)
class Fig2Row:
    """One model's iteration times (ms) for the four methods.

    ``oom`` marks configurations the memory model predicts exceed the
    testbed's 11GB cards — the paper marks Sign-SGD on BERT-Large this way.
    """

    model: str
    times_ms: Dict[str, float]
    oom: Dict[str, bool]

    def ratio_to_ssgd(self, method: str) -> float:
        return self.times_ms[method] / self.times_ms["ssgd"]


def run_fig2(cluster: ClusterSpec = ClusterSpec()) -> List[Fig2Row]:
    """Simulate Fig. 2's 16 bars (with OOM flags from the memory model)."""
    from repro.sim.memory import estimate_memory

    rows = []
    for name, spec in timing_specs().items():
        times = {}
        oom = {}
        for method in FIG2_METHODS:
            times[method] = simulate_iteration(
                method, spec, cluster=cluster, rank=paper_rank(name)
            ).milliseconds[0]
            oom[method] = not estimate_memory(
                method, spec, spec.default_batch_size, cluster.world_size,
                rank=paper_rank(name),
            ).fits()
        rows.append(Fig2Row(name, times, oom))
    return rows


def render(rows: List[Fig2Row]) -> str:
    headers = ["Model"] + [METHOD_LABELS[m] for m in FIG2_METHODS] + ["sign/topk x S-SGD"]
    body = []
    for row in rows:
        cells = [row.model]
        for method in FIG2_METHODS:
            label = f"{row.times_ms[method]:.0f}ms"
            if row.oom[method]:
                label += " (OOM)"
            cells.append(label)
        cells.append(
            f"{row.ratio_to_ssgd('signsgd'):.2f}x / {row.ratio_to_ssgd('topk'):.2f}x"
        )
        body.append(cells)
    return format_rows(headers, body)
