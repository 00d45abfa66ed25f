"""Shared utilities: deterministic seeding, formatting, and small helpers."""

from repro.utils.seeding import rank_rng
from repro.utils.formatting import format_bytes, render_table
from repro.utils.validation import is_finite, payload_checksum

__all__ = [
    "rank_rng",
    "format_bytes",
    "render_table",
    "is_finite",
    "payload_checksum",
]
