"""Table II: compress/communicate complexity — analytic vs *measured*.

The analytic column sums each method's declared wire
(:func:`repro.compression.wire.communicate_elements`); the measured column
runs the real collectives through a
:class:`~repro.comm.process_group.ProcessGroup` on a synthetic gradient and
counts the bytes each rank actually sent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.comm.process_group import ProcessGroup
from repro.compression.wire import FP32, communicate_elements, step_wire
from repro.optim.aggregators import make_aggregator


@dataclass(frozen=True)
class Table2Row:
    """One method's per-worker communication, analytic vs measured."""

    method: str
    analytic_elements: float
    measured_elements: float

    @property
    def relative_error(self) -> float:
        if self.analytic_elements == 0:
            return 0.0
        return abs(self.measured_elements - self.analytic_elements) / self.analytic_elements


def run_table2(
    world_size: int = 4,
    matrix_shape: tuple = (64, 48),
    rank: int = 4,
    topk_ratio: float = 0.01,
    seed: int = 0,
) -> List[Table2Row]:
    """Measure per-worker traffic of one aggregation step per method."""
    rng = np.random.default_rng(seed)
    shapes = [matrix_shape]
    grads = [
        {"weight": rng.normal(size=matrix_shape)} for _ in range(world_size)
    ]
    elem_bytes = grads[0]["weight"].itemsize  # the trainer's float wire
    wire = dict(rank=rank, ratio=topk_ratio)
    rows: List[Table2Row] = []
    for method, kwargs in [
        ("ssgd", {}), ("signsgd", {}), ("topk", {"ratio": topk_ratio}),
        ("powersgd", {"rank": rank}), ("acpsgd", {"rank": rank}),
    ]:
        group = ProcessGroup(world_size)
        aggregator = make_aggregator(method, group, **kwargs)
        sent = 0.0
        for step in (1, 2):  # ACP-SGD's P-step and Q-step
            group.reset_stats()
            aggregator.aggregate(
                [{k: v.copy() for k, v in g.items()} for g in grads]
            )
            # Rank 0's bytes, each collective's scaled to the paper's float32
            # wire as its declaration scales (floats halve, packed bits not).
            ours = step_wire(method, shapes, half=step, elem_bytes=elem_bytes, **wire)
            paper = step_wire(method, shapes, half=step, **wire)
            sent += sum(
                stats.bytes_sent_per_rank[0] * p.nbytes / o.nbytes
                for stats, o, p in zip(group.history, ours, paper)
            )
        analytic = communicate_elements(method, world_size, shapes, **wire)
        rows.append(Table2Row(method, analytic, sent / 2 / FP32))
    return rows


def render(rows: List[Table2Row]) -> str:
    from repro.experiments.common import METHOD_LABELS, format_rows

    headers = ["Method", "analytic (elems/worker)", "measured", "rel.err"]
    body = [
        [METHOD_LABELS[row.method], f"{row.analytic_elements:.0f}",
         f"{row.measured_elements:.0f}", f"{row.relative_error:.1%}"]
        for row in rows
    ]
    return format_rows(headers, body)
