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


#: Sweep category of each task tag: 0 = FF&BP compute, 1 = compression,
#: 2 = communication (an unknown tag is a ``KeyError``).
_CATEGORY = {"forward": 0, "backward": 0, "other": 0, "compression": 1, "comm": 2}


def breakdown_from_records(records: Dict[str, TaskRecord]) -> IterationBreakdown:
    """Sweep task records into the paper's three-way decomposition."""
    # (time, -1 start / +1 end, category): plain tuple order puts starts
    # before ends at equal times; events of one instant commute.
    events: List[Tuple[float, int, int]] = []
    total_end = 0.0
    for record in records.values():
        if record.end > total_end:
            total_end = record.end
        if record.end <= record.start:
            continue
        category = _CATEGORY[record.task.tag]
        events.append((record.start, -1, category))
        events.append((record.end, 1, category))
    if not events:
        return IterationBreakdown(0.0, 0.0, 0.0, 0.0)
    events.sort()

    busy = [0, 0, 0]  # running tasks per category
    ffbp = compression = comm = 0.0
    prev_time = 0.0
    for time, closing, category in events:
        span = time - prev_time
        if span > 0:
            if busy[0]:
                ffbp += span
            elif busy[1]:
                compression += span
            elif busy[2]:
                comm += span
        busy[category] -= closing
        prev_time = time
    return IterationBreakdown(
        total=total_end, ffbp=ffbp, compression=compression, comm_nonoverlap=comm
    )
