"""Sharded, memoized, generation-aware result cache.

The planning workload is read-heavy: millions of cheap lookups over a
small population of expensive simulator results. The cache is therefore
N independent LRU shards — the query's SHA-256 key picks the shard, each
shard has its own lock, bound, and counters — so concurrent readers on
different shards never contend on one lock, and a single hot shard can
evict without touching the others.

Entries are stamped with the *calibration generation* current when they
were computed (:data:`repro.sim.calibration.CALIBRATION_GENERATION`).
A lookup presents the current generation; an entry from an older one is
dropped and reported as a miss — a re-anchored link model must never
serve results priced under the old calibration.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple


@dataclass
class ShardStats:
    """Counters of one shard (monotone except ``entries``)."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    stale_drops: int = 0
    entries: int = 0

    def to_dict(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "stale_drops": self.stale_drops,
            "entries": self.entries,
        }


class _Shard:
    """One LRU-bounded segment of the key space."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.lock = threading.Lock()
        self.entries: "OrderedDict[str, Tuple[int, str]]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.stale_drops = 0

    def get(self, key: str, generation: int) -> Optional[str]:
        with self.lock:
            item = self.entries.get(key)
            if item is None:
                self.misses += 1
                return None
            entry_generation, payload = item
            if entry_generation != generation:
                # Stale calibration: evict so the next put replaces it.
                del self.entries[key]
                self.stale_drops += 1
                self.misses += 1
                return None
            self.entries.move_to_end(key)
            self.hits += 1
            return payload

    def put(self, key: str, generation: int, payload: str) -> None:
        with self.lock:
            if key in self.entries:
                self.entries.move_to_end(key)
            self.entries[key] = (generation, payload)
            while len(self.entries) > self.capacity:
                self.entries.popitem(last=False)
                self.evictions += 1

    def clear(self) -> int:
        with self.lock:
            dropped = len(self.entries)
            self.entries.clear()
            return dropped

    def stats(self) -> ShardStats:
        with self.lock:
            return ShardStats(
                hits=self.hits,
                misses=self.misses,
                evictions=self.evictions,
                stale_drops=self.stale_drops,
                entries=len(self.entries),
            )


class ResultCache:
    """N-shard LRU cache from query key to canonical plan payload.

    Args:
        shards: number of independent segments (>= 1).
        capacity_per_shard: LRU bound per shard; total capacity is
            ``shards * capacity_per_shard``.
    """

    def __init__(self, shards: int = 8, capacity_per_shard: int = 4096) -> None:
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if capacity_per_shard < 1:
            raise ValueError(
                f"capacity_per_shard must be >= 1, got {capacity_per_shard}"
            )
        self._shards: List[_Shard] = [
            _Shard(capacity_per_shard) for _ in range(shards)
        ]

    @property
    def capacity(self) -> int:
        return sum(s.capacity for s in self._shards)

    def shard_index(self, key: str) -> int:
        """Map a hex SHA-256 key onto its shard.

        The leading 64 bits of the digest are uniform, so taking them
        modulo the shard count spreads keys evenly for any shard count.
        """
        return int(key[:16], 16) % len(self._shards)

    def get(self, key: str, generation: int) -> Optional[str]:
        """The payload for ``key`` at ``generation``, or ``None``."""
        return self._shards[self.shard_index(key)].get(key, generation)

    def put(self, key: str, generation: int, payload: str) -> None:
        """Insert/refresh ``key``; may evict the shard's LRU entry."""
        self._shards[self.shard_index(key)].put(key, generation, payload)

    def invalidate_all(self) -> int:
        """Drop every entry (explicit invalidation); returns the count."""
        return sum(shard.clear() for shard in self._shards)

    def __len__(self) -> int:
        return sum(len(shard.entries) for shard in self._shards)

    def stats(self) -> Dict[str, object]:
        """Aggregate + per-shard counters (hit rate over all lookups)."""
        per_shard = [shard.stats() for shard in self._shards]
        hits = sum(s.hits for s in per_shard)
        misses = sum(s.misses for s in per_shard)
        lookups = hits + misses
        return {
            "shards": len(per_shard),
            "capacity": self.capacity,
            "entries": sum(s.entries for s in per_shard),
            "hits": hits,
            "misses": misses,
            "evictions": sum(s.evictions for s in per_shard),
            "stale_drops": sum(s.stale_drops for s in per_shard),
            "hit_rate": (hits / lookups) if lookups else 0.0,
            "per_shard": [s.to_dict() for s in per_shard],
        }
