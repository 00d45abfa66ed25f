"""Open-membership gossip training: windowed, store-mediated exchange.

The closed-world stack (:mod:`repro.train`, :mod:`repro.faults`) assumes
a roster: everyone knows who is in the group, collectives run in lockstep,
and a joiner is hand-held by a donor.
This package drops all three assumptions. Peers publish compressed,
CRC-stamped momentum updates to a shared :class:`UpdateStore` once per
*window*, aggregate whatever their untrusted neighbours published, and
defend themselves with a per-peer :class:`PeerScorer` that quarantines
corrupt, free-riding, lagging, and Byzantine (sign-flipping) publishers.

Entry points:

- :class:`GossipCluster` — seeded single-process harness driving many
  peers through the window loop (the ``python -m repro gossip`` backend).
- :class:`UpdateStore` / :class:`InMemoryStore` / :class:`FilesystemStore`
  — the communication fabric.
- :class:`FaultyStore` / :class:`StoreFaultConfig` — seeded store-level
  fault injection (drops, replication lag, torn fetches, outages) over
  any backend, for the chaos harness and the robustness tests.
- :class:`PeerScorer` / :class:`ScorerConfig` — the Byzantine screen.
- :mod:`repro.sim.gossip` — window-length and staleness pricing on the
  calibrated link models.
"""

from repro.gossip.scorer import (
    OFFENCE_KINDS,
    Contribution,
    Offence,
    PeerRecord,
    PeerScorer,
    ScorerConfig,
)
from repro.gossip.faulty import (
    FaultyStore,
    StoreFaultConfig,
    StoreFaultStats,
    StoreUnavailableError,
)
from repro.gossip.store import FilesystemStore, InMemoryStore, UpdateStore
from repro.gossip.trainer import (
    GossipCluster,
    GossipConfig,
    GossipPeer,
    GossipReport,
    decode_update,
)

__all__ = [
    "OFFENCE_KINDS",
    "Contribution",
    "Offence",
    "PeerRecord",
    "PeerScorer",
    "ScorerConfig",
    "FaultyStore",
    "StoreFaultConfig",
    "StoreFaultStats",
    "StoreUnavailableError",
    "FilesystemStore",
    "InMemoryStore",
    "UpdateStore",
    "GossipCluster",
    "GossipConfig",
    "GossipPeer",
    "GossipReport",
    "decode_update",
]
