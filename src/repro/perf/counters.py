"""Hot-path allocation accounting.

The arena's whole point is that the per-step fused gradient buffers are
allocated once, at trainer construction, and never again. That invariant is
cheap to state and easy to regress silently — one stray ``np.concatenate``
in an aggregator and every step quietly pays a full-model copy per worker.

:data:`ALLOC_STATS` counts, per process, every time the fused pack helper
or an all-reduce falls back to an allocating copy. The ``perf``-marked
smoke test and the benchmark harness reset the counters, drive the hot
path, and assert the arena path performed **zero** fused-buffer
allocations.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class AllocStats:
    """Counters of allocating fallbacks on the fused gradient path.

    Attributes:
        pack_copies: fused buffers materialized by copying (``_pack`` could
            not return a zero-copy arena view).
        bucket_copies: all-reduce payloads summed on an allocating copy
            instead of where they live (every resilient-group all-reduce;
            an S-SGD worker handing in a slab another worker also holds).
    """

    pack_copies: int = 0
    bucket_copies: int = 0

    @property
    def fused_allocs(self) -> int:
        """Allocating events on the fused path since the last reset (the
        fused packs; perfbench reads the total under this name)."""
        return self.pack_copies

    def reset(self) -> None:
        """Zero all counters (call before a measured region)."""
        self.pack_copies = 0
        self.bucket_copies = 0

    def merge(self, delta: dict) -> None:
        """Fold another process's counter snapshot into this one.

        Process workers count allocations in their own interpreter; the
        parent merges each child's per-step delta so the process-global
        counters describe the whole step regardless of which process did
        the allocating. ``fused_allocs`` is derived, so snapshot keys
        without a counter field are ignored.
        """
        self.pack_copies += delta.get("pack_copies", 0)
        self.bucket_copies += delta.get("bucket_copies", 0)

    def snapshot(self) -> dict:
        """Plain-dict copy of all counters (for benchmark reports)."""
        return {
            "pack_copies": self.pack_copies,
            "bucket_copies": self.bucket_copies,
            "fused_allocs": self.fused_allocs,
        }


#: Process-global counters; reset before a measured region.
ALLOC_STATS = AllocStats()
