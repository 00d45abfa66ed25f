"""Span recorder for the traced run.

The harness measures every layer from outside: it replaces public
callables (instance attributes, public module-level names, public methods
of public classes) with timing wrappers *at run time, in the traced child
only*, and puts the originals back when the run ends. A span is
``(name, start_ns, end_ns, parent, op, count)``; ``parent`` is the index of
the span that was open when this one started (-1 at the top), ``op`` the
benchmark operation it belongs to (-1 between operations), ``count`` an
optional work count read from the call's arguments (bytes, tasks).

A span's *self time* is its duration minus the durations of its direct
children, so self times over any subtree add up to the subtree root's
duration exactly; the layer of a span is the first dotted component of its
name (``nn.Conv2d.fwd`` belongs to layer ``nn``).
"""

from __future__ import annotations

import json
import time
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence


class Span(NamedTuple):
    name: str
    start: int
    end: int
    parent: int
    op: int
    count: int


class Recorder:
    """Collects spans in memory; single-threaded by design (one client)."""

    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        #: Operation id stamped on new spans; the driver sets it per op.
        self.op = -1
        self._current = -1
        self._patched: List[tuple] = []

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        count: Optional[Callable[..., int]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a wrapper that records a span.

        ``owner`` is an instance, a class or a module. ``count`` maps the
        call's arguments to a work count stored on the span.
        """
        own = vars(owner)
        had = attr in own
        fn = own[attr] if had else getattr(owner, attr)
        spans = self.spans
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            parent = self._current
            index = len(spans)
            spans.append(None)  # reserve: index order == start order
            self._current = index
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                spans[index] = Span(
                    name, start, end, parent, self.op,
                    count(*args, **kwargs) if count is not None else 0,
                )
                self._current = parent

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, had, fn))

    def restore(self) -> None:
        """Put every wrapped callable back exactly as it was found."""
        for owner, attr, had, fn in reversed(self._patched):
            if had:
                setattr(owner, attr, fn)
            else:
                delattr(owner, attr)
        self._patched = []

    def patched(self) -> List[tuple]:
        """``(owner, attr)`` of everything currently wrapped."""
        return [(owner, attr) for owner, attr, _, _ in self._patched]


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(spans: Sequence[Span]) -> List[int]:
    """Self time (ns) per span: duration minus direct children."""
    out = [span.end - span.start for span in spans]
    for span in spans:
        if span.parent >= 0:
            out[span.parent] -= span.end - span.start
    return out


def tree_problems(spans: Sequence[Span]) -> List[str]:
    """Violations of the span-tree invariants (empty list = well-formed)."""
    problems = []
    for index, span in enumerate(spans):
        if span is None:
            problems.append(f"span {index} never closed")
            continue
        if span.end < span.start:
            problems.append(f"span {index} {span.name} ends before it starts")
        if span.parent >= index:
            problems.append(f"span {index} {span.name} precedes its parent")
        elif span.parent >= 0:
            parent = spans[span.parent]
            if span.start < parent.start or span.end > parent.end:
                problems.append(
                    f"span {index} {span.name} leaks outside parent "
                    f"{parent.name}"
                )
            if span.op != parent.op:
                problems.append(
                    f"span {index} {span.name} changed op under its parent"
                )
    if not problems:
        for index, value in enumerate(self_times(spans)):
            if value < 0:
                problems.append(
                    f"span {index} {spans[index].name} has self time {value}"
                )
    return problems


def has_ancestor(spans: Sequence[Span], index: int, name: str) -> bool:
    parent = spans[index].parent
    while parent >= 0:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False


class Tally:
    """Per-operation sums for one span name."""

    __slots__ = ("self_ns", "total_ns", "calls", "count")

    def __init__(self) -> None:
        self.self_ns = 0
        self.total_ns = 0  # inclusive of children
        self.calls = 0
        self.count = 0


def tally_by_op(spans: Sequence[Span]) -> Dict[int, Dict[str, Tally]]:
    """``{op: {span name: Tally}}`` over every span (op -1 = between ops)."""
    selfs = self_times(spans)
    out: Dict[int, Dict[str, Tally]] = {}
    for span, self_ns in zip(spans, selfs):
        tally = out.setdefault(span.op, {}).setdefault(span.name, Tally())
        tally.self_ns += self_ns
        tally.total_ns += span.end - span.start
        tally.calls += 1
        tally.count += span.count
    return out


def per_op_values(
    tallies: Dict[int, Dict[str, Tally]],
    names: Iterable[str],
    field: str = "self_ns",
) -> List[int]:
    """One value per op *that entered any of* ``names``: their summed field."""
    names = tuple(names)
    values = []
    for op, by_name in tallies.items():
        if op < 0:
            continue
        hit = [by_name[name] for name in names if name in by_name]
        if hit:
            values.append(sum(getattr(tally, field) for tally in hit))
    return values


def layer_shares(spans: Sequence[Span]) -> Dict[str, float]:
    """Share of total in-op time spent in each layer's own code.

    Self times partition every op's duration, so the shares sum to 1.
    """
    totals: Dict[str, int] = {}
    for span, self_ns in zip(spans, self_times(spans)):
        if span.op >= 0:
            layer = layer_of(span.name)
            totals[layer] = totals.get(layer, 0) + self_ns
    whole = sum(totals.values())
    return {layer: value / whole for layer, value in sorted(totals.items())}


def write_chrome_trace(spans: Sequence[Span], path: str) -> None:
    """Write the spans as Trace Event Format JSON plus a counts table.

    Opens in Perfetto / ``chrome://tracing``: one row, nested slices,
    ``cat`` = layer. The ``counts`` key (ignored by the viewers) holds
    calls, inclusive and self milliseconds per span name.
    """
    origin = spans[0].start if spans else 0
    events = [
        {
            "name": span.name,
            "cat": layer_of(span.name),
            "ph": "X",
            "ts": (span.start - origin) / 1e3,
            "dur": (span.end - span.start) / 1e3,
            "pid": 0,
            "tid": 0,
            "args": {"op": span.op, "parent": span.parent,
                     "count": span.count},
        }
        for span in spans
    ]
    counts: Dict[str, Dict[str, float]] = {}
    for span, self_ns in zip(spans, self_times(spans)):
        row = counts.setdefault(
            span.name, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0}
        )
        row["calls"] += 1
        row["total_ms"] += (span.end - span.start) / 1e6
        row["self_ms"] += self_ns / 1e6
    with open(path, "w") as handle:
        json.dump(
            {"traceEvents": events, "displayTimeUnit": "ms",
             "counts": dict(sorted(counts.items()))},
            handle,
        )
