"""Fig. 12: effect of the number of GPUs (8 -> 64), BERT-Base on 10GbE.

The paper's takeaway: all three methods scale well thanks to ring
all-reduce + tensor fusion — only a small iteration-time increase from 8 to
64 GPUs for S-SGD / Power-SGD / ACP-SGD (the Fig. 12 rows of
:mod:`repro.experiments.claims`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.experiments.common import METHOD_LABELS, format_rows, paper_rank
from repro.models import get_model_spec
from repro.sim.strategies import ClusterSpec, simulate_iteration

FIG12_METHODS = ("ssgd", "powersgd", "acpsgd")


@dataclass(frozen=True)
class Fig12Row:
    """Iteration times at one cluster size."""

    world_size: int
    times_ms: Dict[str, float]


def run_fig12(
    world_sizes: Sequence[int] = (8, 16, 32, 64),
    model_name: str = "BERT-Base",
) -> List[Fig12Row]:
    """GPU-count sweep."""
    spec = get_model_spec(model_name)
    rank = paper_rank(model_name)
    rows = []
    for world in world_sizes:
        times = {
            method: simulate_iteration(
                method, spec, cluster=ClusterSpec(world_size=world), rank=rank
            ).milliseconds[0]
            for method in FIG12_METHODS
        }
        rows.append(Fig12Row(world, times))
    return rows


def scaling_increase(rows: List[Fig12Row]) -> Dict[str, float]:
    """Relative iteration-time increase from the smallest to largest cluster."""
    first, last = rows[0], rows[-1]
    return {
        method: last.times_ms[method] / first.times_ms[method] - 1.0
        for method in FIG12_METHODS
    }


def render(rows: List[Fig12Row]) -> str:
    from repro.experiments.claims import SCALING_CLAIMS  # it reads this module

    headers = ["#GPUs"] + [METHOD_LABELS[m] for m in FIG12_METHODS]
    body = [
        [str(r.world_size)] + [f"{r.times_ms[m]:.0f}ms" for m in FIG12_METHODS]
        for r in rows
    ]
    increases = scaling_increase(rows)
    footer = "\nincrease 8->64: " + ", ".join(
        f"{METHOD_LABELS[m]} +{v:.0%}" for m, v in increases.items()
    ) + "  (paper: " + " / ".join(
        f"+{SCALING_CLAIMS[m].paper:.0%}" for m in increases
    ) + ")"
    return format_rows(headers, body) + footer
