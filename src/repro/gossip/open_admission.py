"""Donor-less admission for open-membership (store-mediated) training.

The closed-world admission (committed by a
:class:`~repro.faults.resilient.ResilientProcessGroup`, synced by the
trainer) brings a joiner up to date by broadcasting model + optimizer
state from a surviving *donor* rank — fine inside a process group,
impossible in the gossip mode where peers never talk to each other
directly and nobody is obliged to serve a multi-megabyte state transfer
to a stranger.

The open-membership path needs no donor because **the store is the
broadcast**: every window's aggregated update is reconstructible from the
published payloads, so a brand-new peer

1. builds the *founding* model state — a pure function of the run seed,
   identical to what every founder started from;
2. replays the retained windows from the store in order, screening each
   with a fresh :class:`~repro.gossip.scorer.PeerScorer` of its own
   (the scorer is deterministic, so the replayed trust trajectory — and
   therefore every aggregation weight — matches what the veterans
   computed live);
3. starts publishing from its first live window with cold compressor
   state (zero momentum / EF residual), exactly like a founder at
   window 0.

When the store has been garbage-collected past window 0 the replay is
*partial*: the joiner lands near, not on, the veterans' state and
converges toward them through the shared aggregation. :func:`catch_up_plan`
reports which of the two regimes applies so callers (and tests) can
assert the right contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple


@dataclass(frozen=True)
class CatchUpPlan:
    """Replay schedule for one admission.

    Attributes:
        windows: store windows to replay, ascending.
        complete: True when the replay reaches back to window 0 with no
            holes — the joiner will land bit-identical to a peer that
            lived through the run; False means the store was gc'd (or has
            gaps) and the joiner only lands *near* the veterans.
    """

    windows: Tuple[int, ...]
    complete: bool


def allocate_peer_index(used_indices: Sequence[int]) -> int:
    """Next never-used peer index (ids are never recycled).

    Mirrors :meth:`ResilientProcessGroup.allocate_rank`: allocating past
    the all-time maximum means a joiner can never collide with a live,
    departed, or quarantined peer — per-peer trust and data streams stay
    unambiguous forever.
    """
    return max(used_indices, default=-1) + 1


def catch_up_plan(
    store_windows: Sequence[int], join_window: int
) -> CatchUpPlan:
    """Which windows a peer admitted at ``join_window`` must replay.

    Every retained window strictly before the join is replayed in order.
    The replay is *complete* when it starts at window 0 and is gap-free —
    the determinism contract the gossip tests gate on.
    """
    if join_window < 0:
        raise ValueError(f"join_window must be >= 0, got {join_window}")
    windows: List[int] = sorted(
        window for window in store_windows if 0 <= window < join_window
    )
    complete = windows == list(range(join_window))
    return CatchUpPlan(windows=tuple(windows), complete=complete)
