"""Memoized, generation-aware result cache.

The planning workload is read-heavy: millions of cheap lookups over a
small population of expensive simulator results. The cache is one LRU
under one lock: every lookup and store is a dictionary operation or two,
so the one lock serves ``submit_batch``'s pool threads and concurrent
callers alike without a sharded key space.

Entries are stamped with the *calibration generation* current when they
were computed (:data:`repro.sim.calibration.CALIBRATION_GENERATION`).
A lookup presents the current generation; an entry from an older one is
dropped and reported as a miss — a re-anchored link model must never
serve results priced under the old calibration.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Optional, Tuple


class ResultCache:
    """LRU cache from query key to canonical plan payload.

    Args:
        capacity: LRU bound on the number of entries (>= 1).
    """

    def __init__(self, capacity: int = 32768) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, Tuple[int, str]]" = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._stale_drops = 0

    def get(self, key: str, generation: int) -> Optional[str]:
        """The payload for ``key`` at ``generation``, or ``None``."""
        with self._lock:
            item = self._entries.get(key)
            if item is None:
                self._misses += 1
                return None
            entry_generation, payload = item
            if entry_generation != generation:
                # Stale calibration: evict so the next put replaces it.
                del self._entries[key]
                self._stale_drops += 1
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return payload

    def put(self, key: str, generation: int, payload: str) -> None:
        """Insert/refresh ``key``; may evict the LRU entry."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = (generation, payload)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self._evictions += 1

    def invalidate_all(self) -> int:
        """Drop every entry (explicit invalidation); returns the count."""
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            return dropped

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> Dict[str, object]:
        """Counters (monotone except ``entries``) and the hit rate."""
        with self._lock:
            lookups = self._hits + self._misses
            return {
                "capacity": self.capacity,
                "entries": len(self._entries),
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "stale_drops": self._stale_drops,
                "hit_rate": (self._hits / lookups) if lookups else 0.0,
            }
