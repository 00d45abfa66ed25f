"""Shared utilities: deterministic seeding, formatting, and small helpers."""

from repro.utils.seeding import spawn_rngs
from repro.utils.formatting import format_bytes, render_table
from repro.utils.validation import assert_finite, is_finite, payload_checksum

__all__ = [
    "spawn_rngs",
    "format_bytes",
    "render_table",
    "assert_finite",
    "is_finite",
    "payload_checksum",
]
