"""Table I: model statistics and compression ratios."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.compression.wire import compression_ratio
from repro.experiments.common import TIMING_MODELS, format_rows, paper_rank, timing_specs

# Paper's Table I for comparison in EXPERIMENTS.md.
PAPER_TABLE1 = {
    "ResNet-50": (25.6, 32, 1000, 67),
    "ResNet-152": (60.2, 32, 1000, 53),
    "BERT-Base": (110.1, 32, 1000, 16),
    "BERT-Large": (336.2, 32, 1000, 21),
}


@dataclass(frozen=True)
class Table1Row:
    """One model's statistics and per-method compression ratios."""

    model: str
    params_millions: float
    rank: int
    signsgd_ratio: float
    topk_ratio: float
    powersgd_ratio: float
    acpsgd_ratio: float


def run_table1() -> List[Table1Row]:
    """Compute Table I from the shape-level model specs."""
    rows = []
    for name, spec in timing_specs().items():
        shapes = spec.parameter_shapes()
        rank = paper_rank(name)
        rows.append(
            Table1Row(
                model=name,
                params_millions=spec.num_parameters / 1e6,
                rank=rank,
                signsgd_ratio=compression_ratio(shapes, "signsgd"),
                topk_ratio=compression_ratio(shapes, "topk", ratio=0.001),
                powersgd_ratio=compression_ratio(shapes, "powersgd", rank=rank),
                acpsgd_ratio=compression_ratio(shapes, "acpsgd", rank=rank),
            )
        )
    return rows


def render(rows: List[Table1Row]) -> str:
    """Paper-style rendering with the paper's own values alongside."""
    headers = ["Model", "#Param.(M)", "Sign-SGD", "Top-k", "Power-SGD (r)",
               "ACP-SGD", "paper: params/power"]
    body = []
    for row in rows:
        paper = PAPER_TABLE1[row.model]
        body.append([
            row.model,
            f"{row.params_millions:.1f}",
            f"{row.signsgd_ratio:.0f}x",
            f"{row.topk_ratio:.0f}x",
            f"{row.powersgd_ratio:.0f}x (r={row.rank})",
            f"{row.acpsgd_ratio:.0f}x",
            f"{paper[0]}M / {paper[3]}x",
        ])
    return format_rows(headers, body)
