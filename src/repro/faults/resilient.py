"""Fault-detecting, self-healing process group.

:class:`ResilientProcessGroup` extends the lockstep
:class:`~repro.comm.process_group.ProcessGroup` with the recovery ladder a
production collective stack needs (NCCL + an elastic-training controller,
condensed into one in-process object):

1. **Detect** — every per-rank payload is verified on receipt with a CRC-32
   checksum (catches bit flips and drops) and a finite check (catches NaN
   poisoning even when no checksum is available).
2. **Retry with backoff** — a failed attempt is retransmitted after an
   exponential backoff, up to ``BackoffPolicy.max_retries`` attempts and a
   per-call simulated-time budget ``call_timeout_s``. Transient faults
   (random drops/corruption, short outages) recover *bit-exactly*: the
   retried collective runs on the original buffers.
3. **Fall back** — after ``ring_failure_threshold`` consecutive all-reduce
   calls that needed retries, the group abandons the chunked ring (whose
   2(p-1) steps make it fragile: any bad link fails the whole call) for the
   naive gather-to-root reduce, trading bandwidth optimality for fewer
   moving parts.
4. **Degrade / eject** — when retries are exhausted, the call proceeds
   *without* the faulty ranks and the average is rescaled to the ranks that
   actually contributed. A rank the plan marks permanently dead is ejected:
   at the next :meth:`begin_step` the world shrinks to ``p - 1``, the ring
   re-chunks, and training continues.
5. **Readmit / scale up** — the same boundary commits the plan's
   :class:`~repro.faults.plan.Recovery` and :class:`~repro.faults.plan.Join`
   events and the worker supervisor's rejoins, so one object owns every
   roster change (:attr:`ResilientProcessGroup.changes`).

All waiting is *simulated* (accumulated into ``CollectiveStats.delay_s``
and the resilience stats), so recovery behaviour is deterministic and can
be asserted in CI: the same :class:`~repro.faults.plan.FaultPlan` replayed
with the same seed yields bit-identical training.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.comm import collectives
from repro.comm.process_group import ProcessGroup
from repro.faults.plan import AttemptFaults, FaultInjector, Join
from repro.perf.counters import ALLOC_STATS
from repro.utils.validation import is_finite, payload_checksum


@dataclass(frozen=True)
class BackoffPolicy:
    """Retry/backoff budget for one collective call.

    Attributes:
        max_retries: retransmission attempts after the initial one.
        base_delay_s: backoff before the first retry.
        multiplier: exponential backoff growth factor.
        max_delay_s: cap on a single backoff interval.
        call_timeout_s: per-call budget of simulated waiting (stragglers +
            backoff); once exceeded, the call stops retrying and degrades.
        ring_failure_threshold: consecutive all-reduce calls needing >= 1
            retry before the group falls back to the naive algorithm.
        jitter: full-jitter fraction in ``[0, 1)``: each backoff interval
            is scaled by a factor drawn uniformly from
            ``[1 - jitter, 1 + jitter]``. The draw comes from the fault
            plan's seeded stream (:meth:`FaultPlan.jitter_rng`), never
            from global RNG state, so jittered retry timing replays
            bit-identically under the same seed.
    """

    max_retries: int = 4
    base_delay_s: float = 0.01
    multiplier: float = 2.0
    max_delay_s: float = 1.0
    call_timeout_s: float = 5.0
    ring_failure_threshold: int = 3
    jitter: float = 0.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ValueError("backoff delays must be >= 0")
        if self.multiplier < 1.0:
            raise ValueError(f"multiplier must be >= 1, got {self.multiplier}")
        if self.call_timeout_s <= 0:
            raise ValueError(
                f"call_timeout_s must be > 0, got {self.call_timeout_s}"
            )
        if self.ring_failure_threshold < 1:
            raise ValueError(
                f"ring_failure_threshold must be >= 1, "
                f"got {self.ring_failure_threshold}"
            )
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {self.jitter}")

    def backoff_delay(
        self, retry: int, rng: Optional[np.random.Generator] = None
    ) -> float:
        """Backoff before retry number ``retry`` (1-based).

        ``rng`` supplies the jitter draw; the resilient group passes the
        fault plan's :meth:`~repro.faults.plan.FaultPlan.jitter_rng`
        stream. With ``jitter == 0`` (or no rng) the delay is the pure
        exponential schedule.
        """
        if retry < 1:
            raise ValueError(f"retry is 1-based, got {retry}")
        delay = min(
            self.base_delay_s * self.multiplier ** (retry - 1), self.max_delay_s
        )
        if self.jitter and rng is not None:
            delay *= 1.0 + self.jitter * (2.0 * float(rng.random()) - 1.0)
        return delay


@dataclass
class ResilienceStats:
    """Cumulative recovery accounting for one resilient group."""

    calls: int = 0
    retries: int = 0
    backoff_s: float = 0.0
    straggler_delay_s: float = 0.0
    drops_detected: int = 0
    corruptions_detected: int = 0
    timeouts: int = 0
    ring_fallback_calls: int = 0
    degraded_calls: int = 0
    #: Worker-process supervision (see :mod:`repro.faults.supervisor`):
    #: child deaths detected, step-timeout hangs detected, and children
    #: respawned (retry-in-place or re-seeded after an admission crash).
    worker_crashes: int = 0
    worker_timeouts: int = 0
    worker_restarts: int = 0

    def render(self) -> str:
        """Human-readable one-counter-per-line summary."""
        return "\n".join([
            f"collective calls      {self.calls}",
            f"retries               {self.retries}",
            f"backoff waited        {self.backoff_s * 1e3:.1f} ms",
            f"straggler delay       {self.straggler_delay_s * 1e3:.1f} ms",
            f"drops detected        {self.drops_detected}",
            f"corruptions detected  {self.corruptions_detected}",
            f"timeouts              {self.timeouts}",
            f"naive-fallback calls  {self.ring_fallback_calls}",
            f"degraded calls        {self.degraded_calls}",
            f"worker crashes        {self.worker_crashes}",
            f"worker timeouts       {self.worker_timeouts}",
            f"worker restarts       {self.worker_restarts}",
        ])


@dataclass(frozen=True)
class RosterChange:
    """One committed change of a resilient group's live roster.

    Attributes:
        kind: ``"eject"``, ``"rejoin"`` (an ejected rank readmitted under
            its old id) or ``"join"`` (a brand-new rank id).
        rank: the rank that left or was admitted.
        call_index: group call index at which the change committed.
        world_size: live world size *after* the change.
        donor: for an admission, the survivor whose state the admitted
            rank starts from (the lowest live rank id before it); ``None``
            for an ejection.
    """

    kind: str
    rank: int
    call_index: int
    world_size: int
    donor: Optional[int] = None

    def render(self) -> str:
        donor = f" (state from rank {self.donor})" if self.donor is not None else ""
        return (
            f"call {self.call_index:>4}: {self.kind:<6} rank "
            f"{self.rank}{donor} -> world {self.world_size}"
        )


@dataclass
class _CallOutcome:
    """Result of the retry negotiation for one collective call."""

    call_index: int
    excluded: Set[int]  # ranks that do not contribute to this call
    delay_s: float
    retries: int
    timed_out: bool


class ResilientProcessGroup(ProcessGroup):
    """Process group that survives injected communication faults.

    Args:
        world_size: initial rank count.
        injector: fault source; ``None`` gives a fault-free group that still
            exercises the detection path (useful as a like-for-like control
            in experiments). Its plan's :class:`~repro.faults.plan.Recovery`
            and :class:`~repro.faults.plan.Join` events are the scheduled
            admissions :meth:`begin_step` commits.
        policy: retry/backoff/fallback budgets.

    ``world_size`` always reflects the *live* world: after a roster change
    is committed by :meth:`begin_step`, callers must supply one buffer per
    live rank and averages divide by the live count. The group is the only
    owner of the roster: every ejection, rejoin and join is one
    :class:`RosterChange` in :attr:`changes`.
    """

    def __init__(
        self,
        world_size: int,
        injector: Optional[FaultInjector] = None,
        policy: Optional[BackoffPolicy] = None,
    ):
        super().__init__(world_size)
        self.initial_world_size = world_size
        self.injector = injector
        self.policy = policy if policy is not None else BackoffPolicy()
        self.stats = ResilienceStats()
        self.live_ranks: List[int] = list(range(world_size))
        #: Every committed roster change, in commit order.
        self.changes: List[RosterChange] = []
        self._dead: Set[int] = set()
        self._call_index = 0
        self._consecutive_ring_failures = 0
        self._ring_disabled = False
        # Highest rank id ever used: Join admissions allocate past it so a
        # new rank can never collide with a live or ejected one.
        self._max_rank = world_size - 1
        # The plan's Recovery/Join events not yet committed, in commit
        # order, and the supervisor's rejoins: (boundaries left, rank).
        self._events = list(
            injector.plan.membership_events() if injector is not None else ()
        )
        self._rejoins: List[Tuple[int, int]] = []

    # ------------------------------------------------------------------
    # World management
    # ------------------------------------------------------------------
    def begin_step(
        self, sync: Optional[Callable[[RosterChange], None]] = None
    ) -> List[int]:
        """Commit every roster change that is due; returns the live roster.

        Callers driving multi-collective steps (the trainer) call this once
        per step so the world size never changes *within* a step, mirroring
        how elastic runtimes restart the job between iterations. In order:
        ejections of ranks found dead, the plan's Recovery/Join events
        whose call index has been reached (plan commit order; a recovery
        of a rank that is live is a no-op), then the rejoins
        :meth:`schedule_rejoin` made due. An admission that races its own
        ejection within one boundary resolves to eject-then-readmit.

        ``sync`` is called with each admission right after it commits,
        while the roster is the one that admission produced: the trainer
        broadcasts its state from the donor and warm-starts the admitted
        rank's compressor there. Without it only the roster changes.
        """
        for rank in [rank for rank in self.live_ranks if rank in self._dead]:
            self.live_ranks.remove(rank)
            self.world_size = len(self.live_ranks)
            if self.world_size == 0:
                raise RuntimeError("all ranks have failed permanently")
            self.changes.append(
                RosterChange("eject", rank, self._call_index, self.world_size)
            )
        # Due admissions in commit order: a rank id to readmit, or None for
        # a Join (its id is allocated when it commits).
        due: List[Optional[int]] = []
        while self._events and self._events[0].call_index <= self._call_index:
            event = self._events.pop(0)
            due.append(None if isinstance(event, Join) else event.rank)
        due += sorted(rank for boundaries, rank in self._rejoins if boundaries <= 1)
        self._rejoins = [
            (boundaries - 1, rank)
            for boundaries, rank in self._rejoins if boundaries > 1
        ]
        for rank in due:
            if rank in self.live_ranks:
                continue  # recovered before its ejection ever committed
            change = self.admit(
                self.allocate_rank() if rank is None else rank,
                rejoin=rank is not None,
            )
            if sync is not None:
                sync(change)
        return list(self.live_ranks)

    def admit(self, rank: int, rejoin: bool) -> RosterChange:
        """Add ``rank`` to the live roster (a step-boundary operation).

        :meth:`begin_step` calls it for every due admission; the ring
        re-chunks automatically on the next collective because chunking is
        derived from the roster length. ``rejoin`` distinguishes a
        previously ejected rank returning from a brand-new rank. Returns
        the committed change, whose donor is the lowest live rank id
        before the admission.
        """
        if rank in self.live_ranks:
            raise ValueError(f"rank {rank} is already live")
        if rank < 0:
            raise ValueError(f"rank must be >= 0, got {rank}")
        donor = min(self.live_ranks)
        self._dead.discard(rank)
        self.live_ranks.append(rank)
        self.live_ranks.sort()
        self.world_size = len(self.live_ranks)
        self._max_rank = max(self._max_rank, rank)
        change = RosterChange(
            "rejoin" if rejoin else "join", rank, self._call_index,
            self.world_size, donor,
        )
        self.changes.append(change)
        return change

    def allocate_rank(self) -> int:
        """Next never-used rank id for a :class:`~repro.faults.plan.Join`."""
        self._max_rank += 1
        return self._max_rank

    def schedule_rejoin(self, rank: int, after_boundaries: int) -> None:
        """Readmit ``rank`` at the ``after_boundaries``-th :meth:`begin_step`
        from now (the worker supervisor's respawn-and-rejoin request).

        Plan events are known up front; a worker crash is not — the
        supervisor discovers it mid-step and asks for the rank back here.
        The rejoin commits through the same admission as a plan
        :class:`~repro.faults.plan.Recovery`. With ``after_boundaries=1``
        it commits at the very boundary the ejection does (the roster never
        visibly shrinks); larger values leave the world smaller for
        ``after_boundaries - 1`` steps. Counting boundaries — not wall
        clock — keeps the schedule bit-reproducible across backends.
        """
        if after_boundaries < 1:
            raise ValueError(
                f"after_boundaries must be >= 1, got {after_boundaries}"
            )
        if rank < 0:
            raise ValueError(f"rank must be >= 0, got {rank}")
        self._rejoins.append((after_boundaries, rank))

    def ranks_of(self, kind: str) -> List[int]:
        """Ranks of the committed changes of ``kind``, in commit order."""
        return [change.rank for change in self.changes if change.kind == kind]

    @property
    def world_size_timeline(self) -> List[Tuple[int, int]]:
        """``(call_index, world_size)`` at construction and after every
        committed roster change."""
        return [(0, self.initial_world_size)] + [
            (change.call_index, change.world_size) for change in self.changes
        ]

    def mark_worker_failed(self, rank: int) -> None:
        """Treat ``rank`` as dead from *outside* evidence (a crashed child).

        The communication layer marks ranks dead from wire evidence; the
        worker supervisor marks them dead from process evidence (pipe EOF,
        exitcode, step timeout). Either way the consequences are the same:
        the rank contributes to no further collective this step (excluded
        cost-free, averages rescale to the survivors) and the ejection
        commits at the next :meth:`begin_step` boundary. Idempotent.
        """
        if rank not in self.live_ranks:
            raise ValueError(f"rank {rank} is not in the live roster")
        self._dead.add(rank)

    @property
    def call_index(self) -> int:
        """Index the next collective call will carry (monotonic)."""
        return self._call_index

    @property
    def ring_disabled(self) -> bool:
        """True once the fallback ladder switched all-reduce to naive."""
        return self._ring_disabled

    def injected_delay_s(self) -> float:
        """Total simulated delay recorded on this group's collectives."""
        return float(sum(stats.delay_s for stats in self.history))

    # ------------------------------------------------------------------
    # Detection + retry core
    # ------------------------------------------------------------------
    def _verify_received(
        self,
        buffers: Sequence[np.ndarray],
        received: Sequence[Optional[np.ndarray]],
        checksums: Sequence[int],
        ranks: Sequence[int],
    ) -> Tuple[Set[int], int, int]:
        """Checksum/finite-check the received payloads.

        Returns (bad ranks, drops, corruptions). Detection is *evidence
        based*: a rank is only flagged when its payload is missing, fails
        the CRC, or carries non-finite values.
        """
        bad: Set[int] = set()
        drops = 0
        corruptions = 0
        for position, rank in enumerate(ranks):
            payload = received[position]
            if payload is None:
                bad.add(rank)
                drops += 1
            elif (payload_checksum(payload) != checksums[position]
                  or not is_finite(payload)):
                bad.add(rank)
                corruptions += 1
        return bad, drops, corruptions

    def _negotiate(
        self, buffers: Sequence[np.ndarray], ranks: Sequence[int]
    ) -> _CallOutcome:
        """Run the detect/retry/backoff loop for one collective call."""
        call = self._call_index
        self._call_index += 1
        self.stats.calls += 1
        policy = self.policy

        # Ranks already known dead contribute nothing and cost no retries.
        known_dead = {rank for rank in ranks if rank in self._dead}
        active = [rank for rank in ranks if rank not in known_dead]

        if self.injector is None:
            return _CallOutcome(call, known_dead, 0.0, 0, False)

        checksums = [
            payload_checksum(buffers[position])
            for position, rank in enumerate(ranks)
        ]
        delay = 0.0
        retries = 0
        timed_out = False
        excluded: Set[int] = set(known_dead)
        while True:
            faults = self.injector.sample(call, retries, active)
            delay += faults.straggler_delay_s
            self.stats.straggler_delay_s += faults.straggler_delay_s
            received = self.injector.apply(buffers, ranks, faults)
            # Positions of known-dead ranks are ignored by marking them bad.
            bad, drops, corruptions = self._verify_received(
                buffers, received, checksums, ranks
            )
            bad = {rank for rank in bad if rank in active}
            self.stats.drops_detected += drops
            self.stats.corruptions_detected += corruptions
            if not bad:
                break
            if retries >= policy.max_retries:
                excluded |= bad
                break
            backoff = policy.backoff_delay(
                retries + 1, rng=self.injector.plan.jitter_rng(call, retries + 1)
            )
            if delay + backoff > policy.call_timeout_s:
                timed_out = True
                self.stats.timeouts += 1
                excluded |= bad
                break
            retries += 1
            self.stats.retries += 1
            self.stats.backoff_s += backoff
            delay += backoff

        # Ranks whose permanent failure has fired are marked for ejection
        # at the next step boundary; transient stragglers are excluded from
        # this call only.
        for rank in excluded & self.injector.plan.permanently_dead(call):
            self._dead.add(rank)
        if excluded - known_dead:
            self.stats.degraded_calls += 1
        return _CallOutcome(call, excluded, delay, retries, timed_out)

    def _note_ring_health(self, outcome: _CallOutcome) -> None:
        """Advance the fallback ladder on retry-burning all-reduce calls."""
        if self._ring_disabled:
            return
        if outcome.retries > 0 or outcome.excluded:
            self._consecutive_ring_failures += 1
            if self._consecutive_ring_failures >= self.policy.ring_failure_threshold:
                self._ring_disabled = True
        else:
            self._consecutive_ring_failures = 0

    # ------------------------------------------------------------------
    # Collectives
    # ------------------------------------------------------------------
    def _all_reduce(
        self,
        buffers: Sequence[np.ndarray],
        seg_start: int,
        total_length: Optional[int],
        average: bool,
        inplace: bool,
    ) -> Sequence[np.ndarray]:
        """Resilient all-reduce: ring while healthy, naive after fallback.

        The one negotiated body behind the four inherited ``all_reduce*``
        methods. Every call — a whole buffer or one bucket — runs the full
        detect/retry/backoff negotiation on its own payloads, so a
        transient fault retransmits only the affected bucket before
        degrading. The reduction always runs on copies of the contributing
        ranks' payloads (retransmissions need the originals pristine, and a
        degraded call sums a subset): while the ring is healthy through the
        same kernel and chunk schedule as a clean group — bit-identical,
        and accounted over the group's topology when every rank of it
        contributed, over a flat ring of the survivors otherwise — and,
        once the fallback ladder fired, summed naively in rank order. The
        average (when requested) divides by the number of ranks that
        actually contributed, so a degraded call still returns an unbiased
        mean of the surviving gradients. ``inplace`` only decides where the
        result goes: copied back into every buffer, or returned as copies.
        """
        self._check_world(buffers)
        ranks = list(self.live_ranks)
        outcome = self._negotiate(buffers, ranks)
        self._note_ring_health(outcome)
        subset = [
            buffers[position] for position, rank in enumerate(ranks)
            if rank not in outcome.excluded
        ]
        if not subset:
            raise RuntimeError(
                f"all-reduce call {outcome.call_index}: no healthy rank left"
            )
        ALLOC_STATS.bucket_copies += 1
        if self._ring_disabled:
            reduced, stats = collectives.all_reduce_naive(subset)
            self.stats.ring_fallback_calls += 1
            result = reduced[0]
        else:
            dtype = collectives.work_dtype(subset[0].dtype)
            work = [buf.reshape(-1).astype(dtype) for buf in subset]
            whole = (
                self.topology is not None
                and len(subset) == self.topology.world_size
            )
            stats = collectives.all_reduce_inplace(
                work, seg_start, total_length,
                self.topology if whole else None, self._ring_scratch,
                elem_bytes=subset[0].dtype.itemsize,
            )
            result = work[0].astype(subset[0].dtype, copy=False).reshape(
                subset[0].shape
            )
        stats.delay_s = outcome.delay_s
        self.history.append(stats)
        if average:
            result = result / len(subset)
        if not inplace:
            return [result.copy() for _ in buffers]
        for buf in buffers:
            np.copyto(buf, result)
        return buffers

    def all_gather(self, buffers: Sequence[np.ndarray]) -> List[List[Optional[np.ndarray]]]:
        """Resilient all-gather; a degraded call delivers ``None`` in the
        position of every payload it failed to deliver."""
        self._check_world(buffers)
        ranks = list(self.live_ranks)
        outcome = self._negotiate(buffers, ranks)
        contributing = [
            position for position, rank in enumerate(ranks)
            if rank not in outcome.excluded
        ]
        if not contributing:
            raise RuntimeError(
                f"all-gather call {outcome.call_index}: no healthy rank left"
            )
        subset = [buffers[position] for position in contributing]
        gathered, stats = collectives.all_gather(subset)
        stats.delay_s = outcome.delay_s
        self.history.append(stats)
        # The payloads are the gather's own copies, shared by every caller
        # rank as a clean group's are.
        delivered = dict(zip(contributing, gathered[0]))
        return [[delivered.get(p) for p in range(len(buffers))] for _ in buffers]

    def resilience_report(self) -> str:
        """Render the live world, the recovery stats and every roster
        change (one line each) for humans."""
        ring = "disabled (naive fallback)" if self._ring_disabled else "active"
        timeline = " -> ".join(
            f"{size}@call{call}" for call, size in self.world_size_timeline
        )
        return "\n".join([
            f"live world {self.world_size} (started at "
            f"{self.initial_world_size}); ring {ring}",
            self.stats.render(),
            f"membership changes    {len(self.changes)}",
            *(f"  {change.render()}" for change in self.changes),
            f"world-size timeline   {timeline}",
        ])
