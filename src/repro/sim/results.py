"""Iteration-time breakdown accounting.

The paper's metric (§III-A): iteration time decomposed into FF&BP
computation, compression/decompression, and **non-overlapped**
communication. We derive the same stacked decomposition from the engine's
task records by sweeping the timeline:

- a moment counts as *communication (non-overlapped)* when only the NIC is
  busy;
- it counts as *compression* when a compression task is running and no
  FF/BP task is (compression hidden behind BP is charged to FF&BP, exactly
  as a stacked wall-clock bar would show);
- everything else busy counts as *FF&BP* (including slowdowns inflicted on
  BP by contention — the paper attributes those to computation time too).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, List, Sequence, Tuple

from repro.sim.engine import TaskRecord


@dataclass(frozen=True)
class IterationBreakdown:
    """One simulated iteration's timing summary (seconds)."""

    total: float
    ffbp: float
    compression: float
    comm_nonoverlap: float

    @classmethod
    def mean(cls, breakdowns: Sequence["IterationBreakdown"]) -> "IterationBreakdown":
        """Field-wise mean (ACP-SGD averages its P- and Q-step graphs)."""
        return cls(*(
            sum(getattr(bd, field.name) for bd in breakdowns) / len(breakdowns)
            for field in fields(cls)
        ))

    @property
    def milliseconds(self) -> Tuple[float, float, float, float]:
        """(total, ffbp, compression, comm) in ms, for paper-style output."""
        return (
            self.total * 1e3,
            self.ffbp * 1e3,
            self.compression * 1e3,
            self.comm_nonoverlap * 1e3,
        )

    def render(self, label: str = "") -> str:
        """One-line summary like the paper's breakdown bars."""
        total, ffbp, comp, comm = self.milliseconds
        prefix = f"{label}: " if label else ""
        return (
            f"{prefix}total={total:.1f}ms  ff&bp={ffbp:.1f}ms  "
            f"compress={comp:.1f}ms  comm(non-overlap)={comm:.1f}ms"
        )


def breakdown_from_records(records: Dict[str, TaskRecord]) -> IterationBreakdown:
    """Sweep task records into the paper's three-way decomposition."""
    if not records:
        return IterationBreakdown(0.0, 0.0, 0.0, 0.0)
    events: List[Tuple[float, int, str]] = []
    for record in records.values():
        if record.end <= record.start:
            continue
        tag = record.task.tag
        events.append((record.start, +1, tag))
        events.append((record.end, -1, tag))
    if not events:
        return IterationBreakdown(0.0, 0.0, 0.0, 0.0)
    events.sort(key=lambda item: (item[0], -item[1]))

    counts = {"forward": 0, "backward": 0, "compression": 0, "comm": 0, "other": 0}
    total_end = max(record.end for record in records.values())
    ffbp = compression = comm = 0.0
    prev_time = 0.0
    idx = 0
    while idx < len(events):
        time = events[idx][0]
        span = time - prev_time
        if span > 0:
            compute_busy = counts["forward"] or counts["backward"] or counts["other"]
            if compute_busy:
                ffbp += span
            elif counts["compression"]:
                compression += span
            elif counts["comm"]:
                comm += span
        while idx < len(events) and events[idx][0] == time:
            _, delta, tag = events[idx]
            counts[tag] += delta
            idx += 1
        prev_time = time
    return IterationBreakdown(
        total=total_end, ffbp=ffbp, compression=compression, comm_nonoverlap=comm
    )
