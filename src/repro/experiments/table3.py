"""Table III: iteration time of S-SGD, Power-SGD, Power-SGD*, ACP-SGD."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.experiments.common import (
    METHOD_LABELS,
    format_rows,
    paper_rank,
    timing_specs,
)
from repro.sim.strategies import ClusterSpec, simulate_iteration

TABLE3_METHODS = ("ssgd", "powersgd", "powersgd_star", "acpsgd")

# The paper's Table III (milliseconds), read by the claim rows and renders.
PAPER_TABLE3 = {
    "ResNet-50": {"ssgd": 266, "powersgd": 302, "powersgd_star": 286, "acpsgd": 248},
    "ResNet-152": {"ssgd": 500, "powersgd": 423, "powersgd_star": 404, "acpsgd": 316},
    "BERT-Base": {"ssgd": 805, "powersgd": 236, "powersgd_star": 292, "acpsgd": 193},
    "BERT-Large": {"ssgd": 2307, "powersgd": 392, "powersgd_star": 516, "acpsgd": 245},
}


@dataclass(frozen=True)
class Table3Row:
    """One model's iteration times in milliseconds."""

    model: str
    times_ms: Dict[str, float]

    def speedup_over(self, baseline: str, method: str = "acpsgd") -> float:
        """e.g. ACP-SGD's speedup over S-SGD."""
        return self.times_ms[baseline] / self.times_ms[method]


def run_table3(cluster: ClusterSpec = ClusterSpec()) -> List[Table3Row]:
    """Simulate Table III's 16 cells."""
    rows = []
    for name, spec in timing_specs().items():
        times = {
            method: simulate_iteration(
                method, spec, cluster=cluster, rank=paper_rank(name)
            ).milliseconds[0]
            for method in TABLE3_METHODS
        }
        rows.append(Table3Row(name, times))
    return rows


def run_table3_with_std(
    cluster: ClusterSpec = ClusterSpec(), iterations: int = 20
) -> List[Dict[str, str]]:
    """Table III in the paper's own ``mean +/- std`` presentation.

    Uses the jittered variance simulation
    (:mod:`repro.sim.variance`) — the paper measures over ~100 iterations
    on hardware; per-task 2% jitter reproduces its <=12ms std range.
    """
    from repro.sim.variance import simulate_iteration_distribution

    rows = []
    for name, spec in timing_specs().items():
        cells = {"model": name}
        for method in TABLE3_METHODS:
            dist = simulate_iteration_distribution(
                method, spec, cluster=cluster, rank=paper_rank(name),
                iterations=iterations,
            )
            cells[method] = f"{dist.mean_ms:.0f} +/- {dist.std_ms:.0f}"
        rows.append(cells)
    return rows


def render_with_std(rows: List[Dict[str, str]]) -> str:
    """Render the mean +/- std variant."""
    headers = ["Model"] + [METHOD_LABELS[m] for m in TABLE3_METHODS] \
        + ["paper (S/P/P*/ACP)"]
    body = []
    for row in rows:
        paper = PAPER_TABLE3[row["model"]]
        body.append(
            [row["model"]]
            + [row[m] for m in TABLE3_METHODS]
            + ["/".join(str(paper[m]) for m in TABLE3_METHODS)]
        )
    return format_rows(headers, body)


def average_speedups(rows: List[Table3Row]) -> Dict[str, float]:
    """Mean ACP-SGD speedup over each baseline (the paper's headline)."""
    out = {}
    for baseline in ("ssgd", "powersgd", "powersgd_star"):
        out[baseline] = sum(r.speedup_over(baseline) for r in rows) / len(rows)
    return out


def render(rows: List[Table3Row]) -> str:
    from repro.experiments.claims import MEAN_SPEEDUP_CLAIMS  # it reads this module

    headers = (
        ["Model"]
        + [METHOD_LABELS[m] for m in TABLE3_METHODS]
        + ["paper (S/P/P*/ACP)"]
    )
    body = []
    for row in rows:
        paper = PAPER_TABLE3[row.model]
        body.append(
            [row.model]
            + [f"{row.times_ms[m]:.0f}ms" for m in TABLE3_METHODS]
            + ["/".join(str(paper[m]) for m in TABLE3_METHODS)]
        )
    speedups = average_speedups(rows)
    footer = "\nACP-SGD mean speedups: " + ", ".join(
        f"{speedups[baseline]:.2f}x over {METHOD_LABELS[baseline]} "
        f"(paper {claim.paper:.2f}x)"
        for baseline, claim in MEAN_SPEEDUP_CLAIMS.items()
    )
    return format_rows(headers, body) + footer
