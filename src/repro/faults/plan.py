"""Deterministic, seeded fault plans for the in-process comm stack.

A :class:`FaultPlan` describes *what can go wrong* on the simulated wire:
random payload drops and corruptions, stragglers, and scheduled transient /
permanent rank failures. A :class:`FaultInjector` turns the plan into
concrete per-attempt fault assignments and applies them to per-rank buffers
at the :class:`~repro.comm.process_group.ProcessGroup` boundary.

Determinism is the design center: every random draw comes from a generator
seeded with ``(plan.seed, call_index, attempt, rank)``, so

- the same plan replayed over the same call sequence produces bit-identical
  faults (CI can assert exact recovery behaviour);
- a *retry* of a call (``attempt + 1``) re-samples the random faults — a
  dropped packet is usually clean on retransmit, exactly like a real
  network — while scheduled failures (a rank that is down) persist for as
  many attempts as the plan says.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

_CORRUPT_MODES = ("nan", "bitflip")

#: Adversarial peer behaviours the gossip mode can schedule.
PEER_FAULT_KINDS = ("corrupt-payload", "free-rider", "sign-flip", "lagging")

#: Worker-process failure modes the supervisor must survive.
WORKER_FAULT_KINDS = ("crash", "hang", "slow")

#: Seed-tuple sentinel decoupling the backoff-jitter stream from the
#: per-rank fault stream (ranks are always >= 0, so no collision).
_JITTER_STREAM = 2**31 - 1


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault occurrence (the injector's audit log entry)."""

    kind: str  # "drop" | "corrupt" | "straggle" | "down"
    call_index: int
    attempt: int
    rank: int
    detail: str = ""


@dataclass(frozen=True)
class TransientFailure:
    """Rank ``rank`` is unreachable for the first ``attempts`` attempts of
    call ``call_index`` and recovers afterwards.

    With ``attempts`` within the retry budget the call recovers bit-exactly;
    beyond the budget the resilient group degrades by excluding the rank
    from that call only.
    """

    rank: int
    call_index: int
    attempts: int = 1

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ValueError(f"rank must be >= 0, got {self.rank}")
        if self.call_index < 0:
            raise ValueError(f"call_index must be >= 0, got {self.call_index}")
        if self.attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {self.attempts}")


@dataclass(frozen=True)
class PermanentFailure:
    """Rank ``rank`` dies at call ``call_index`` and never returns.

    "Never" can be revised by a matching :class:`Recovery` event later in
    the plan — the fail-up half of the membership story.
    """

    rank: int
    call_index: int

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ValueError(f"rank must be >= 0, got {self.rank}")
        if self.call_index < 0:
            raise ValueError(f"call_index must be >= 0, got {self.call_index}")


@dataclass(frozen=True)
class Recovery:
    """Rank ``rank`` becomes reachable again at call ``call_index``.

    A recovery revises the most recent :class:`PermanentFailure` of the
    same rank: from ``call_index`` on the rank answers the wire again, and
    the :class:`~repro.faults.resilient.ResilientProcessGroup` readmits it
    (state warm-start, ring rebuild, re-shard) at the next step boundary. Failure and recovery
    events interleave by call index, so a rank can fail, rejoin, and fail
    again within one plan.
    """

    rank: int
    call_index: int

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ValueError(f"rank must be >= 0, got {self.rank}")
        if self.call_index < 0:
            raise ValueError(f"call_index must be >= 0, got {self.call_index}")


@dataclass(frozen=True)
class Join:
    """A brand-new rank asks to join the group at call ``call_index``.

    The joiner has no history and no rank id yet — the
    :class:`~repro.faults.resilient.ResilientProcessGroup` allocates the
    next never-used id and admits it at the first step boundary after
    ``call_index``.
    """

    call_index: int

    def __post_init__(self) -> None:
        if self.call_index < 0:
            raise ValueError(f"call_index must be >= 0, got {self.call_index}")


@dataclass(frozen=True)
class PeerFault:
    """One peer's scheduled adversarial behaviour in the gossip mode.

    Unlike the wire faults above (which strike *collective calls*), peer
    faults strike *published updates*: the peer keeps participating in the
    windowed exchange but its contributions are hostile or useless.

    Attributes:
        kind: one of :data:`PEER_FAULT_KINDS` —
            ``"corrupt-payload"`` (the published blob is bit-flipped so it
            fails CRC verification), ``"free-rider"`` (the peer skips its
            local compute and publishes a zero update), ``"sign-flip"``
            (the classic Byzantine attack: the update is negated, pushing
            the model *away* from the peer's own descent direction), and
            ``"lagging"`` (the peer publishes updates computed ``lag``
            windows ago, stamped with their true window).
        rank: the misbehaving peer's index in the founding roster.
        start_window: first window (inclusive) the behaviour is active.
        end_window: last window (inclusive); ``None`` means forever.
        lag: staleness in windows for ``"lagging"`` peers.
    """

    kind: str
    rank: int
    start_window: int = 0
    end_window: Optional[int] = None
    lag: int = 2

    def __post_init__(self) -> None:
        if self.kind not in PEER_FAULT_KINDS:
            raise ValueError(
                f"kind must be one of {PEER_FAULT_KINDS}, got {self.kind!r}"
            )
        if self.rank < 0:
            raise ValueError(f"rank must be >= 0, got {self.rank}")
        if self.start_window < 0:
            raise ValueError(
                f"start_window must be >= 0, got {self.start_window}"
            )
        if self.end_window is not None and self.end_window < self.start_window:
            raise ValueError(
                f"end_window {self.end_window} precedes start_window "
                f"{self.start_window}"
            )
        if self.lag < 1:
            raise ValueError(f"lag must be >= 1, got {self.lag}")

    def active(self, window: int) -> bool:
        """Whether the behaviour applies during ``window``."""
        if window < self.start_window:
            return False
        return self.end_window is None or window <= self.end_window


@dataclass(frozen=True)
class WorkerFault:
    """One scheduled worker-process failure.

    Unlike wire faults (which strike *collective calls*) and peer faults
    (which strike *published updates*), worker faults strike the *compute*:
    the worker executing ``rank``'s backprop misbehaves at training step
    ``step``. The trainer reads the plan when it builds the step's tasks
    and ships the fault in the rank's task; a process child injects the
    failure into itself at the top of the task, *before any batch draw*,
    so a failed attempt leaves the rank's sampling stream where the
    fault-free run has it. The sequential
    backend runs the same task in-process and answers the fault with the
    error the child would have died with, at the same point, which is what
    makes ``workers="process"`` recovery comparable bit-for-bit against a
    sequential baseline.

    Attributes:
        kind: one of :data:`WORKER_FAULT_KINDS` —
            ``"crash"`` (the child SIGKILLs itself: pipe EOF, no exit
            handler, no cleanup — the harshest death available),
            ``"hang"`` (the child stops responding; only the parent's
            per-step timeout can detect it), and
            ``"slow"`` (the child sleeps ``delay_s`` then completes —
            a straggler that must *not* trip supervision when the delay
            stays under the step timeout).
        rank: the struck worker's rank id.
        step: 0-based trainer step index at which the fault fires.
        delay_s: sleep for ``"slow"`` workers (ignored by other kinds).
    """

    kind: str
    rank: int
    step: int
    delay_s: float = 0.05

    def __post_init__(self) -> None:
        if self.kind not in WORKER_FAULT_KINDS:
            raise ValueError(
                f"kind must be one of {WORKER_FAULT_KINDS}, got {self.kind!r}"
            )
        if self.rank < 0:
            raise ValueError(f"rank must be >= 0, got {self.rank}")
        if self.step < 0:
            raise ValueError(f"step must be >= 0, got {self.step}")
        if self.delay_s < 0:
            raise ValueError(f"delay_s must be >= 0, got {self.delay_s}")


@dataclass(frozen=True)
class FaultPlan:
    """Seeded description of the fault environment.

    Attributes:
        seed: root seed for all random fault draws.
        drop_rate: per-(call, attempt, rank) probability a rank's payload is
            lost in transit.
        corrupt_rate: per-(call, attempt, rank) probability a rank's payload
            is corrupted (mode below).
        corrupt_mode: ``"nan"`` (poison one element) or ``"bitflip"`` (flip
            one random bit of the raw bytes — may stay finite, but never
            passes the CRC check).
        straggler_rate: per-(call, attempt, rank) probability the rank is
            slow; stragglers delay the call but do not fail it.
        straggler_delay_s: simulated extra seconds a straggling rank adds.
        transient: scheduled recoverable outages.
        permanent: scheduled unrecoverable rank deaths.
        recoveries: scheduled rank rejoins (each revises the most recent
            permanent failure of its rank).
        joins: scheduled admissions of brand-new ranks.
        peer_faults: scheduled adversarial peer behaviours for the gossip
            mode (:class:`PeerFault`); in gossip runs ``permanent`` /
            ``recoveries`` / ``joins`` events are interpreted with
            ``call_index`` meaning *window index*.
        worker_faults: scheduled worker-process failures
            (:class:`WorkerFault`), shipped in the step's task, then
            self-applied by process children and simulated by the
            sequential backend at the same point.
    """

    seed: int = 0
    drop_rate: float = 0.0
    corrupt_rate: float = 0.0
    corrupt_mode: str = "nan"
    straggler_rate: float = 0.0
    straggler_delay_s: float = 0.05
    transient: Tuple[TransientFailure, ...] = ()
    permanent: Tuple[PermanentFailure, ...] = ()
    recoveries: Tuple[Recovery, ...] = ()
    joins: Tuple[Join, ...] = ()
    peer_faults: Tuple[PeerFault, ...] = ()
    worker_faults: Tuple[WorkerFault, ...] = ()

    def __post_init__(self) -> None:
        for rate_name in ("drop_rate", "corrupt_rate", "straggler_rate"):
            rate = getattr(self, rate_name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{rate_name} must be in [0, 1], got {rate}")
        if self.corrupt_mode not in _CORRUPT_MODES:
            raise ValueError(
                f"corrupt_mode must be one of {_CORRUPT_MODES}, "
                f"got {self.corrupt_mode!r}"
            )
        if self.straggler_delay_s < 0:
            raise ValueError(
                f"straggler_delay_s must be >= 0, got {self.straggler_delay_s}"
            )
        # Coerce lists (convenient at call sites) to tuples for hashability.
        object.__setattr__(self, "transient", tuple(self.transient))
        object.__setattr__(self, "permanent", tuple(self.permanent))
        object.__setattr__(self, "recoveries", tuple(self.recoveries))
        object.__setattr__(self, "joins", tuple(self.joins))
        object.__setattr__(self, "peer_faults", tuple(self.peer_faults))
        object.__setattr__(self, "worker_faults", tuple(self.worker_faults))
        by_cell: Set[Tuple[int, int]] = set()
        for fault in self.worker_faults:
            cell = (fault.rank, fault.step)
            if cell in by_cell:
                raise ValueError(
                    f"multiple worker faults for rank {fault.rank} at step "
                    f"{fault.step}; schedule at most one per (rank, step)"
                )
            by_cell.add(cell)

    def rank_rng(self, call_index: int, attempt: int, rank: int) -> np.random.Generator:
        """Deterministic generator for one (call, attempt, rank) cell."""
        return np.random.default_rng((self.seed, call_index, attempt, rank))

    def jitter_rng(self, call_index: int, retry: int) -> np.random.Generator:
        """Deterministic stream for backoff jitter on one (call, retry).

        Derived from the plan seed — never from global RNG state — so
        retry timing is part of the seeded replay contract: the same plan
        over the same call sequence waits the same simulated backoff.
        """
        return np.random.default_rng(
            (self.seed, call_index, retry, _JITTER_STREAM)
        )

    def peer_faults_at(self, rank: int, window: int) -> Tuple[PeerFault, ...]:
        """Peer-fault behaviours active for ``rank`` during ``window``."""
        return tuple(
            fault for fault in self.peer_faults
            if fault.rank == rank and fault.active(window)
        )

    def adversarial_ranks(self) -> Set[int]:
        """Founding ranks with at least one scheduled peer fault."""
        return {fault.rank for fault in self.peer_faults}

    def worker_fault_at(self, rank: int, step: int) -> Optional[WorkerFault]:
        """The worker fault scheduled for ``rank`` at trainer step ``step``.

        At most one per (rank, step) — enforced at construction — so the
        trainer building the step's tasks reads an unambiguous schedule.
        """
        for fault in self.worker_faults:
            if fault.rank == rank and fault.step == step:
                return fault
        return None

    def rank_down(self, call_index: int, attempt: int, rank: int) -> bool:
        """Whether a scheduled (non-random) outage silences this rank now."""
        if self.permanently_down(rank, call_index):
            return True
        for failure in self.transient:
            if (failure.rank == rank and failure.call_index == call_index
                    and attempt < failure.attempts):
                return True
        return False

    def permanently_down(self, rank: int, call_index: int) -> bool:
        """Whether ``rank`` is in a (possibly recoverable) permanent outage.

        Failure and :class:`Recovery` events interleave by call index and
        the latest one wins: a rank is down iff its most recent permanent
        failure at or before ``call_index`` has no later recovery.
        """
        last_failure = max(
            (f.call_index for f in self.permanent
             if f.rank == rank and f.call_index <= call_index),
            default=None,
        )
        if last_failure is None:
            return False
        last_recovery = max(
            (r.call_index for r in self.recoveries
             if r.rank == rank and r.call_index <= call_index),
            default=None,
        )
        return last_recovery is None or last_recovery < last_failure

    def permanently_dead(self, call_index: int) -> Set[int]:
        """Ranks in a permanent outage (not yet recovered) at ``call_index``."""
        return {
            failure.rank for failure in self.permanent
            if self.permanently_down(failure.rank, call_index)
        }

    def membership_events(self) -> Tuple:
        """Recovery/join events in deterministic commit order.

        Sorted by (call_index, kind, rank) — recoveries before joins at the
        same call index, so a rejoining rank reclaims its old id before a
        fresh joiner is allocated a new one.
        """
        keyed = [(r.call_index, 0, r.rank, r) for r in self.recoveries]
        keyed += [(j.call_index, 1, -1, j) for j in self.joins]
        return tuple(event for *_, event in sorted(keyed, key=lambda k: k[:3]))


@dataclass
class AttemptFaults:
    """Concrete fault assignment for one attempt of one collective call."""

    call_index: int
    attempt: int
    dropped: Set[int] = field(default_factory=set)
    corrupted: Set[int] = field(default_factory=set)
    down: Set[int] = field(default_factory=set)
    straggler_delay_s: float = 0.0

    @property
    def faulty_ranks(self) -> Set[int]:
        """Ranks whose payload will not arrive intact this attempt."""
        return self.dropped | self.corrupted | self.down

    @property
    def clean(self) -> bool:
        return not self.faulty_ranks


def corrupt_payload(
    buffer: np.ndarray, rng: np.random.Generator, mode: str = "nan"
) -> np.ndarray:
    """Return a corrupted copy of ``buffer`` (the original is untouched)."""
    out = np.array(buffer, copy=True)
    if out.size == 0:
        return out
    if mode == "nan":
        flat = out.reshape(-1)
        if flat.dtype.kind != "f":
            flat = flat.astype(np.float64)
            out = flat.reshape(out.shape)
        flat[int(rng.integers(flat.size))] = np.nan
        return out
    if mode == "bitflip":
        raw = bytearray(out.tobytes())
        bit = int(rng.integers(len(raw) * 8))
        raw[bit // 8] ^= 1 << (bit % 8)
        return np.frombuffer(bytes(raw), dtype=out.dtype).reshape(out.shape).copy()
    raise ValueError(f"unknown corrupt mode {mode!r}")


class FaultInjector:
    """Materializes a :class:`FaultPlan` into per-attempt buffer faults.

    One injector serves one process group; it keeps an append-only
    :attr:`events` log so tests (and the resilience report) can reconcile
    detected faults against injected ones.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self.events: List[FaultEvent] = []

    def sample(
        self, call_index: int, attempt: int, ranks: Sequence[int]
    ) -> AttemptFaults:
        """Draw this attempt's fault assignment for the given live ranks."""
        faults = AttemptFaults(call_index=call_index, attempt=attempt)
        plan = self.plan
        for rank in ranks:
            if plan.rank_down(call_index, attempt, rank):
                faults.down.add(rank)
                self._log("down", call_index, attempt, rank)
                continue
            rng = plan.rank_rng(call_index, attempt, rank)
            draw_drop, draw_corrupt, draw_straggle = rng.random(3)
            if plan.drop_rate and draw_drop < plan.drop_rate:
                faults.dropped.add(rank)
                self._log("drop", call_index, attempt, rank)
            elif plan.corrupt_rate and draw_corrupt < plan.corrupt_rate:
                faults.corrupted.add(rank)
                self._log("corrupt", call_index, attempt, rank, plan.corrupt_mode)
            if plan.straggler_rate and draw_straggle < plan.straggler_rate:
                faults.straggler_delay_s = max(
                    faults.straggler_delay_s, plan.straggler_delay_s
                )
                self._log("straggle", call_index, attempt, rank)
        return faults

    def apply(
        self,
        buffers: Sequence[np.ndarray],
        ranks: Sequence[int],
        faults: AttemptFaults,
    ) -> List[Optional[np.ndarray]]:
        """Simulate the transfer: per position, the payload as received.

        ``None`` marks a payload that never arrived (drop or down rank);
        corrupted ranks yield a tampered copy; everyone else passes their
        buffer through untouched.
        """
        received: List[Optional[np.ndarray]] = []
        for position, rank in enumerate(ranks):
            if rank in faults.dropped or rank in faults.down:
                received.append(None)
            elif rank in faults.corrupted:
                rng = self.plan.rank_rng(faults.call_index, faults.attempt, rank)
                rng = np.random.default_rng(rng.integers(2**63))  # decouple from sample()
                received.append(
                    corrupt_payload(buffers[position], rng, self.plan.corrupt_mode)
                )
            else:
                received.append(buffers[position])
        return received

    def events_of_kind(self, kind: str) -> List[FaultEvent]:
        """Filter the audit log by fault kind."""
        return [event for event in self.events if event.kind == kind]

    def _log(self, kind: str, call_index: int, attempt: int, rank: int,
             detail: str = "") -> None:
        self.events.append(FaultEvent(kind, call_index, attempt, rank, detail))
