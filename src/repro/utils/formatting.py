"""Human-readable formatting for experiment output.

The experiment drivers print tables that mirror the paper's presentation
(Table I, Table III, figure series). These helpers keep that rendering
consistent across benchmarks and examples.
"""

from __future__ import annotations

from typing import List, Sequence


def format_bytes(num_bytes: float) -> str:
    """Format a byte count with a binary-ish unit (KB/MB/GB, base 1024)."""
    value = float(num_bytes)
    for unit in ("B", "KB", "MB", "GB", "TB"):
        if abs(value) < 1024.0 or unit == "TB":
            if unit == "B":
                return f"{value:.0f}{unit}"
            return f"{value:.2f}{unit}"
        value /= 1024.0
    raise AssertionError("unreachable")


def render_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """Render an aligned plain-text table.

    Args:
        headers: column titles.
        rows: row cells; each row must have ``len(headers)`` entries.

    Returns:
        A multi-line string with a header rule, suitable for printing from
        benchmarks so the output can be compared side by side with the paper.
    """
    str_rows: List[List[str]] = [[str(cell) for cell in row] for row in rows]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells but table has {len(headers)} columns"
            )
    widths = [len(h) for h in headers]
    for row in str_rows:
        for idx, cell in enumerate(row):
            widths[idx] = max(widths[idx], len(cell))
    def fmt_row(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[idx]) for idx, cell in enumerate(cells))

    lines = [fmt_row(headers), fmt_row(["-" * w for w in widths])]
    lines.extend(fmt_row(row) for row in str_rows)
    return "\n".join(lines)
