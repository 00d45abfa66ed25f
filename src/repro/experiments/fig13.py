"""Fig. 13: effect of network bandwidth (1GbE / 10GbE / 100Gb IB), 32 GPUs.

Paper anchors (the Fig. 13 rows of :mod:`repro.experiments.claims`): on
1GbE Power-SGD and ACP-SGD run several times faster than S-SGD on ResNet-50
and BERT-Base; on 100Gb IB ACP-SGD still beats S-SGD on BERT-Base.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.experiments.common import METHOD_LABELS, format_rows, paper_rank
from repro.models import get_model_spec
from repro.sim.calibration import SIM_LINKS
from repro.sim.strategies import ClusterSpec, simulate_iteration

FIG13_MODELS = ("ResNet-50", "ResNet-152", "BERT-Base", "BERT-Large")
FIG13_METHODS = ("ssgd", "powersgd", "acpsgd")


@dataclass(frozen=True)
class Fig13Row:
    """One (link, model)'s iteration times."""

    link: str
    model: str
    times_ms: Dict[str, float]

    def speedup(self, method: str) -> float:
        return self.times_ms["ssgd"] / self.times_ms[method]


def run_fig13(
    links: Sequence[str] = ("1GbE", "10GbE", "100GbIB"),
    models: Sequence[str] = FIG13_MODELS,
    world_size: int = 32,
) -> List[Fig13Row]:
    """Bandwidth sweep."""
    rows = []
    for link_name in links:
        link = SIM_LINKS[link_name]
        for model_name in models:
            spec = get_model_spec(model_name)
            times = {
                method: simulate_iteration(
                    method, spec, cluster=ClusterSpec(world_size, link),
                    rank=paper_rank(model_name),
                ).milliseconds[0]
                for method in FIG13_METHODS
            }
            rows.append(Fig13Row(link_name, model_name, times))
    return rows


def render(rows: List[Fig13Row]) -> str:
    headers = ["Link", "Model", "S-SGD", "Power-SGD", "ACP-SGD",
               "Power x", "ACP x"]
    body = [
        [r.link, r.model,
         f"{r.times_ms['ssgd']:.0f}ms", f"{r.times_ms['powersgd']:.0f}ms",
         f"{r.times_ms['acpsgd']:.0f}ms",
         f"{r.speedup('powersgd'):.1f}x", f"{r.speedup('acpsgd'):.1f}x"]
        for r in rows
    ]
    return format_rows(headers, body)
