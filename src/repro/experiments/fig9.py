"""Fig. 9: benefits of system optimizations (WFBP, TF) step by step.

Three variants per method on ResNet-152 and BERT-Large: Naive (no WFBP,
no TF), +WFBP, +WFBP+TF. The paper's findings: WFBP gives S-SGD/ACP-SGD
~12%, hurts Power-SGD (GPU contention); TF then gives 1.28x / 2.16x /
1.56x over WFBP-only; ACP-SGD's full speed-up over its naive variant is a
Fig. 9 row of :mod:`repro.experiments.claims`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.experiments.common import METHOD_LABELS, format_rows, paper_rank
from repro.models import get_model_spec
from repro.sim.strategies import ClusterSpec, SystemConfig, simulate_iteration

FIG9_MODELS = ("ResNet-152", "BERT-Large")
FIG9_METHODS = ("ssgd", "powersgd_star", "acpsgd")
VARIANTS = (
    ("naive", SystemConfig(wfbp=False, tensor_fusion=False)),
    ("wfbp", SystemConfig(wfbp=True, tensor_fusion=False)),
    ("wfbp+tf", SystemConfig(wfbp=True, tensor_fusion=True)),
)


@dataclass(frozen=True)
class Fig9Row:
    """One (model, method)'s three variant times in ms."""

    model: str
    method: str
    times_ms: Dict[str, float]

    @property
    def tf_speedup_over_wfbp(self) -> float:
        return self.times_ms["wfbp"] / self.times_ms["wfbp+tf"]

    @property
    def full_speedup_over_naive(self) -> float:
        return self.times_ms["naive"] / self.times_ms["wfbp+tf"]


def run_fig9(cluster: ClusterSpec = ClusterSpec()) -> List[Fig9Row]:
    """Simulate the 3x3x2 grid of Fig. 9."""
    rows = []
    for name in FIG9_MODELS:
        spec = get_model_spec(name)
        for method in FIG9_METHODS:
            times = {
                label: simulate_iteration(
                    method, spec, cluster=cluster, system=config,
                    rank=paper_rank(name),
                ).milliseconds[0]
                for label, config in VARIANTS
            }
            rows.append(Fig9Row(name, method, times))
    return rows


def render(rows: List[Fig9Row]) -> str:
    headers = ["Model", "Method", "Naive", "+WFBP", "+WFBP+TF",
               "TF x over WFBP", "full x over naive"]
    body = []
    for row in rows:
        body.append([
            row.model, METHOD_LABELS[row.method],
            f"{row.times_ms['naive']:.0f}ms",
            f"{row.times_ms['wfbp']:.0f}ms",
            f"{row.times_ms['wfbp+tf']:.0f}ms",
            f"{row.tf_speedup_over_wfbp:.2f}x",
            f"{row.full_speedup_over_naive:.2f}x",
        ])
    return format_rows(headers, body)
