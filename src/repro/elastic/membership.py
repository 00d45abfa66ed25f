"""Step-boundary membership control for elastic data-parallel training.

The :class:`MembershipController` sits between the trainer and a
:class:`~repro.faults.resilient.ResilientProcessGroup` and owns the full
membership story of a run:

- **Ejections** (fail-down) are committed by the group's ``begin_step`` as
  before; the controller records them in its :class:`MembershipLog`.
- **Rejoins** (:class:`~repro.faults.plan.Recovery` events) readmit a
  previously ejected rank under its original rank id.
- **Joins** (:class:`~repro.faults.plan.Join` events) admit a brand-new
  rank under a never-used id (allocated past the highest id ever seen, so
  ids are never recycled and per-rank state can never be confused).

All three commit only at :meth:`MembershipController.begin_step` — the
same boundary the fault stack uses for ejections — so the world size never
changes *within* a training step and the ring re-chunks exactly once per
membership change.

Admission protocol (deterministic, in commit order):

1. the group adds the rank to the live roster (``admit``), which rescales
   every later averaged collective to the new world size;
2. the current model parameters and optimizer state are broadcast from the
   *donor* — the lowest-id survivor — through the group's ``broadcast``
   collective, so the sync traffic is measured like any other collective;
3. the aggregator builds fresh compressor state for the rank, warm-started
   from the donor's (:meth:`GradientAggregator.admit_rank`): shared
   carried state (Power-SGD's reused query, ACP-SGD's alternating factors)
   is copied, per-worker error-feedback residuals start at zero;
4. optionally, the learning rate is rescaled linearly with the world size
   (the linear-scaling rule; off by default because the repo's convergence
   baselines fix the global batch assignment per worker);
5. the trainer (which re-syncs its roster every step) re-shards the
   dataset disjointly and exhaustively over the new roster and allocates
   an arena slab and data-sampling stream for the new rank.

Every draw and every allocation is a pure function of (seed, rank id,
call index), so a churn schedule replayed over the same plan is
bit-identical — the property ``scripts/check_determinism.py`` gates on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.faults.plan import FaultPlan, Join, Recovery
from repro.faults.resilient import ResilientProcessGroup


@dataclass(frozen=True)
class MembershipChange:
    """One committed membership transition (the controller's log entry)."""

    kind: str  # "eject" | "rejoin" | "join"
    rank: int
    call_index: int  # group call index at which the change committed
    world_size: int  # live world size *after* the change
    donor: Optional[int] = None  # state donor for admissions, None for ejections


@dataclass
class MembershipLog:
    """Append-only record of every committed membership change."""

    changes: List[MembershipChange] = field(default_factory=list)

    def of_kind(self, kind: str) -> List[MembershipChange]:
        return [change for change in self.changes if change.kind == kind]

    def render(self) -> str:
        """Human-readable one-change-per-line summary."""
        if not self.changes:
            return "no membership changes"
        lines = []
        for change in self.changes:
            donor = f" (state from rank {change.donor})" if change.donor is not None else ""
            lines.append(
                f"call {change.call_index:>4}: {change.kind:<6} rank "
                f"{change.rank}{donor} -> world {change.world_size}"
            )
        return "\n".join(lines)


class MembershipController:
    """Commits scheduled membership events at step boundaries.

    Args:
        group: the resilient group whose roster is being managed.
        plan: the fault plan holding the Recovery/Join schedule; defaults
            to the plan of the group's own injector (the common case where
            failures and rejoins come from one schedule).

    The controller is inert until a trainer is :meth:`bind`-ed: without
    one it still manages the roster (useful for unit tests) but skips the
    state-sync half of the admission protocol.
    """

    def __init__(
        self,
        group: ResilientProcessGroup,
        plan: Optional[FaultPlan] = None,
    ):
        if plan is None:
            if group.injector is None:
                raise ValueError(
                    "no plan given and the group has no injector to take "
                    "one from"
                )
            plan = group.injector.plan
        self.group = group
        self.plan = plan
        self.log = MembershipLog()
        self._events = list(plan.membership_events())
        self._cursor = 0
        # Dynamically scheduled rejoins (the worker supervisor's
        # respawn-and-rejoin requests): (boundaries remaining, rank).
        self._dynamic: List[List[int]] = []
        self._trainer = None

    def bind(self, trainer) -> None:
        """Attach the trainer whose model/optimizer/aggregator we sync.

        Duck-typed: anything with ``model``, ``optimizer`` and
        ``aggregator`` attributes works.
        """
        self._trainer = trainer

    @property
    def pending_events(self) -> int:
        """Scheduled membership events not yet committed."""
        return len(self._events) - self._cursor + len(self._dynamic)

    def schedule_rejoin(self, rank: int, after_boundaries: int) -> None:
        """Request a dynamic readmission of ``rank`` (supervisor path).

        Plan events are known up front; a worker crash is not — the
        supervisor discovers it mid-step and asks for the rank back
        *here*. The rejoin commits at the ``after_boundaries``-th
        :meth:`begin_step` from now, through the same admission protocol
        as a plan :class:`~repro.faults.plan.Recovery`. With
        ``after_boundaries=1`` it commits at the very boundary the
        ejection does (eject-then-readmit: the roster never visibly
        shrinks); larger values leave the world smaller for
        ``after_boundaries - 1`` steps. Counting boundaries — not wall
        clock — keeps the schedule bit-reproducible across backends.
        """
        if after_boundaries < 1:
            raise ValueError(
                f"after_boundaries must be >= 1, got {after_boundaries}"
            )
        if rank < 0:
            raise ValueError(f"rank must be >= 0, got {rank}")
        self._dynamic.append([after_boundaries, rank])

    def begin_step(self) -> List[int]:
        """Commit due ejections and admissions; returns the live roster.

        Ejections first (the group's own boundary logic), then every
        Recovery/Join whose ``call_index`` has been reached, in the plan's
        deterministic commit order. An admission that races its own
        ejection within one boundary resolves to eject-then-readmit.
        """
        before = set(self.group.live_ranks)
        self.group.begin_step()
        for rank in sorted(before - set(self.group.live_ranks)):
            self.log.changes.append(
                MembershipChange(
                    "eject", rank, self.group.call_index, self.group.world_size
                )
            )
        while (self._cursor < len(self._events)
               and self._events[self._cursor].call_index <= self.group.call_index):
            event = self._events[self._cursor]
            self._cursor += 1
            if isinstance(event, Recovery):
                if event.rank in self.group.live_ranks:
                    continue  # recovered before its ejection ever committed
                self._admit(event.rank, rejoin=True)
            elif isinstance(event, Join):
                self._admit(self.group.allocate_rank(), rejoin=False)
        if self._dynamic:
            due: List[int] = []
            remaining: List[List[int]] = []
            for boundaries, rank in self._dynamic:
                if boundaries <= 1:
                    due.append(rank)
                else:
                    remaining.append([boundaries - 1, rank])
            self._dynamic = remaining
            for rank in sorted(due):
                if rank in self.group.live_ranks:
                    continue
                self._admit(rank, rejoin=True)
        return list(self.group.live_ranks)

    # ------------------------------------------------------------------
    # Admission protocol
    # ------------------------------------------------------------------
    def _admit(self, rank: int, rejoin: bool) -> None:
        group = self.group
        donor = min(group.live_ranks)
        group.admit(rank, rejoin=rejoin)
        trainer = self._trainer
        if trainer is not None:
            self._broadcast_state(trainer, donor)
            trainer.aggregator.admit_rank(rank, donor_rank=donor)
        self.log.changes.append(
            MembershipChange(
                "rejoin" if rejoin else "join",
                rank,
                group.call_index,
                group.world_size,
                donor=donor,
            )
        )

    def _broadcast_state(self, trainer, donor: int) -> None:
        """Broadcast model weights + optimizer state from the donor.

        In the lockstep simulation every worker already shares the one
        physical model, so the broadcast's *numerics* are a no-op — but it
        is issued through the group so the admission's synchronization
        traffic (a full model + optimizer state transfer) is measured on
        the wire exactly like a real elastic runtime's would be.
        """
        payload = self._pack_state(trainer)
        if payload.size == 0:
            return
        roster = list(self.group.live_ranks)
        root = roster.index(donor)
        buffers = [
            payload if slot == root else np.zeros_like(payload)
            for slot in range(len(roster))
        ]
        self.group.broadcast(buffers, root=root)

    @staticmethod
    def _pack_state(trainer) -> np.ndarray:
        """Flatten model parameters and optimizer state into one buffer."""
        chunks = [
            param.data.reshape(-1).astype(np.float64)
            for _, param in trainer.model.named_parameters()
        ]
        state = getattr(trainer.optimizer, "_velocity", None)
        if state:
            chunks.extend(
                state[name].reshape(-1).astype(np.float64)
                for name in sorted(state)
            )
        if not chunks:
            return np.zeros(0, dtype=np.float64)
        return np.concatenate(chunks)


def joiner_rng(seed: int, rank: int) -> np.random.Generator:
    """Deterministic data-sampling stream for rank ``rank``.

    Child ``rank`` of the run's root :class:`numpy.random.SeedSequence` —
    the same stream ``spawn_rngs`` hands the initial workers, extended to
    arbitrary rank ids, so the stream a rank draws depends only on
    ``(seed, rank)`` and never on when it joined.
    """
    root = np.random.SeedSequence(seed)
    return np.random.default_rng(root.spawn(rank + 1)[rank])
