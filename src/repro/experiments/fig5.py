"""Fig. 5: CDF of tensor sizes, uncompressed (M) vs compressed (P and Q).

The paper's point: after low-rank decomposition the tensors to communicate
get much smaller (the proportion of tensors under 1e4 / 1e5 parameters for
ResNet-50 / BERT-Base rises; its Fig. 5 row in :mod:`repro.experiments.claims`),
which is why tensor fusion is essential for ACP-SGD.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.compression.wire import step_wire
from repro.experiments.common import format_rows, paper_rank
from repro.models import get_model_spec


@dataclass(frozen=True)
class Fig5Data:
    """Sorted tensor sizes (elements) for one model."""

    model: str
    rank: int
    uncompressed_sizes: Tuple[int, ...]
    compressed_sizes: Tuple[int, ...]  # P and Q factor sizes interleaved

    def cdf_at(self, threshold: float, compressed: bool) -> float:
        """Fraction of tensors with <= threshold parameters."""
        sizes = self.compressed_sizes if compressed else self.uncompressed_sizes
        arr = np.asarray(sizes)
        if arr.size == 0:
            return 0.0
        return float((arr <= threshold).mean())

    @property
    def threshold(self) -> float:
        """The paper's size threshold for this model (Fig. 5)."""
        return 1e4 if "ResNet" in self.model else 1e5

    @property
    def increase(self) -> float:
        """Rise of the share of tensors under the threshold after P,Q."""
        return (self.cdf_at(self.threshold, compressed=True)
                - self.cdf_at(self.threshold, compressed=False))


def run_fig5(models: Tuple[str, ...] = ("ResNet-50", "BERT-Base")) -> List[Fig5Data]:
    """Collect tensor-size distributions (M vs P,Q) per model."""
    out = []
    for name in models:
        spec = get_model_spec(name)
        rank = paper_rank(name)
        uncompressed = [tensor.size for tensor in spec.tensors()]
        # Power-SGD's step sends every tensor once: plain, or as P and Q.
        wire = step_wire("powersgd", spec.parameter_shapes(), rank=rank, elem_bytes=1)
        compressed = [size for collective in wire for size in collective.sizes]
        out.append(
            Fig5Data(name, rank, tuple(sorted(uncompressed)), tuple(sorted(compressed)))
        )
    return out


def render(data: List[Fig5Data]) -> str:
    headers = ["Model", "threshold", "CDF(M)", "CDF(P,Q)", "increase"]
    body = []
    for item in data:
        cdf_m = item.cdf_at(item.threshold, compressed=False)
        cdf_pq = item.cdf_at(item.threshold, compressed=True)
        body.append([
            item.model, f"1e{int(np.log10(item.threshold))}",
            f"{cdf_m:.0%}", f"{cdf_pq:.0%}", f"+{item.increase:.0%}",
        ])
    return format_rows(headers, body)
