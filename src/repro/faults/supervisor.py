"""Worker-process supervision: detect, classify, recover from child death.

The process backend (:mod:`repro.perf.procpool`) runs each rank's backprop
in a persistent child. Children die — OOM-killed, segfaulted, SIGKILLed by
an operator — and they hang, which is worse, because a dead pipe screams
while a deadlocked child says nothing. This module is the policy layer
that turns both events from run-killers into membership events:

- **Detection** is the pool's job: pipe EOF or a dead ``exitcode`` raises
  :class:`WorkerDeadError`; a per-step timeout with the child still alive
  raises :class:`WorkerTimeoutError`. Both derive from :class:`WorkerError`
  (itself a ``RuntimeError``, so legacy ``except RuntimeError`` callers
  keep working) and carry the rank, so callers can classify.
- **Policy** is this module's job: a :class:`SupervisionPolicy` says what
  the trainer does next, and a :class:`WorkerSupervisor` holds the
  recovery budget and the accounting
  (:class:`~repro.faults.resilient.ResilienceStats` gains
  ``worker_crashes`` / ``worker_timeouts`` / ``worker_restarts``).

Two recovery rungs, mirroring the communication layer's ladder:

``"restart"``
    The dead child is ejected from the pool, a fresh one is respawned,
    and the failed task is re-run *within the same step*, without its
    fault — the roster never shrinks. Because scheduled
    :class:`~repro.faults.plan.WorkerFault` injections fire *before any
    batch draw*, a failed attempt returns no generator and leaves the
    trainer's stream for the rank untouched, so the retried task consumes
    exactly the draws the fault-free run would have: the recovered
    trajectory is **bit-identical to the fault-free run**. This works with
    any process group.

``"eject"``
    The step completes degraded — the dead rank contributes nothing and
    the average rescales to the survivors, exactly like a permanent
    communication failure — and the
    :class:`~repro.faults.resilient.ResilientProcessGroup` ejects the rank
    at the next step boundary. After ``respawn_delay_steps`` boundaries
    the group readmits it (its ``schedule_rejoin``) through the same
    admission as a plan :class:`~repro.faults.plan.Recovery` (donor state
    broadcast, compressor warm-start, re-shard, fresh child spawned; the
    rank's stream waited in the trainer). The trajectory is bit-identical
    to a *sequential*
    run handling the same :class:`~repro.faults.plan.WorkerFault`
    schedule, which is what ``scripts/check_determinism.py`` gates.

Both backends run one step protocol: the trainer hands each live rank a
task, and the sequential backend runs the tasks in-process, answering a
scheduled fault with the error its child would have died with
(:meth:`WorkerSupervisor.simulated_failure`) at the point the child would
apply it. Recovery is then the same code on either backend, and a
sequential run is the process-free reference to diff against bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.faults.plan import FaultPlan, WorkerFault
from repro.faults.resilient import ResilienceStats

#: ``exitcode`` reported for a simulated crash (what a real SIGKILL
#: yields from ``multiprocessing.Process.exitcode``).
SIGKILL_EXITCODE = -9


class WorkerError(RuntimeError):
    """A worker process failed to deliver its step result.

    Base of the typed hierarchy the pool raises instead of bare
    ``RuntimeError``; carries the rank so supervisors can classify and
    recover per worker.
    """

    def __init__(self, rank: int, message: str):
        super().__init__(message)
        self.rank = rank


class WorkerDeadError(WorkerError):
    """The worker's process died (pipe EOF / dead exitcode).

    ``exitcode`` is ``multiprocessing.Process.exitcode`` when known
    (negative values are deaths by signal: -9 is SIGKILL), ``None`` when
    the process could not be reaped in time.
    """

    def __init__(self, rank: int, exitcode: Optional[int] = None,
                 phase: str = "step"):
        detail = f"exitcode {exitcode}" if exitcode is not None else "no exitcode"
        super().__init__(
            rank,
            f"worker process for rank {rank} died during {phase} ({detail})",
        )
        self.exitcode = exitcode
        self.phase = phase


class WorkerTimeoutError(WorkerError):
    """The worker's process is alive but did not reply within the step
    timeout — a hang or a pathological slowdown.

    The supervisor treats a hung child as unrecoverable-in-place: it is
    killed and handled like a death (a stuck process may hold locks or a
    half-written pipe; a fresh child is the only safe state).
    """

    def __init__(self, rank: int, timeout_s: float):
        super().__init__(
            rank,
            f"worker process for rank {rank} did not reply within "
            f"{timeout_s}s (hung or overloaded child)",
        )
        self.timeout_s = timeout_s


@dataclass(frozen=True)
class SupervisionPolicy:
    """What the trainer does when a worker process dies or hangs.

    Attributes:
        on_failure: ``"restart"`` (respawn the child and retry its task
            within the step; trajectory bit-identical to fault-free) or
            ``"eject"`` (finish the step degraded, eject the rank at the
            next boundary, optionally readmit it later; requires a
            :class:`~repro.faults.resilient.ResilientProcessGroup`).
        max_restarts: total child respawns the supervisor will pay for
            over the run — both retry-in-place respawns and
            crashed-during-admission re-seeds draw from this budget; one
            more failure after it is exhausted re-raises the original
            typed error.
        respawn_delay_steps: for ``"eject"``: step boundaries between the
            ejection committing and the supervisor readmitting the rank
            (``1`` readmits at the very boundary the ejection commits, so
            the roster never visibly shrinks; ``None`` never readmits —
            the world stays smaller).
    """

    on_failure: str = "restart"
    max_restarts: int = 8
    respawn_delay_steps: Optional[int] = 2

    def __post_init__(self) -> None:
        if self.on_failure not in ("restart", "eject"):
            raise ValueError(
                f"on_failure must be 'restart' or 'eject', "
                f"got {self.on_failure!r}"
            )
        if self.max_restarts < 0:
            raise ValueError(
                f"max_restarts must be >= 0, got {self.max_restarts}"
            )
        if self.respawn_delay_steps is not None and self.respawn_delay_steps < 1:
            raise ValueError(
                "respawn_delay_steps must be >= 1 (the ejection itself "
                f"commits at the next boundary), got {self.respawn_delay_steps}"
            )


class WorkerSupervisor:
    """Per-run recovery budget + accounting for worker failures.

    One supervisor serves one trainer. It owns no OS resources — the pool
    detects, the trainer orchestrates — it decides (is the budget spent?)
    and counts (into ``stats``, which is the resilient group's own
    :class:`ResilienceStats` when one exists, so worker recovery shows up
    in the same report as communication recovery).
    """

    def __init__(
        self,
        policy: SupervisionPolicy,
        plan: Optional[FaultPlan] = None,
        stats: Optional[ResilienceStats] = None,
    ):
        self.policy = policy
        self.plan = plan
        self.stats = stats if stats is not None else ResilienceStats()
        self.restarts_used = 0

    # ------------------------------------------------------------------
    # Classification + accounting
    # ------------------------------------------------------------------
    def record_failure(self, error: WorkerError) -> None:
        """Count one detected failure by kind."""
        if isinstance(error, WorkerTimeoutError):
            self.stats.worker_timeouts += 1
        else:
            self.stats.worker_crashes += 1

    def consume_restart(self, error: WorkerError) -> None:
        """Spend one respawn from the budget; re-raise when exhausted."""
        if self.restarts_used >= self.policy.max_restarts:
            raise error
        self.restarts_used += 1
        self.stats.worker_restarts += 1

    @staticmethod
    def simulated_failure(fault: WorkerFault) -> Optional[WorkerError]:
        """The error the process backend would raise for ``fault``.

        The sequential backend returns it for the task at the exact point
        a child would self-apply the fault (before any batch draw), so
        both backends enter the one recovery path in the same state.
        ``"slow"`` returns ``None``: a slow child under the timeout
        completes normally and must not trip supervision in either backend.
        """
        if fault.kind == "crash":
            return WorkerDeadError(fault.rank, exitcode=SIGKILL_EXITCODE)
        if fault.kind == "hang":
            # A hang is only observable through the step timeout; the
            # sequential backend assumes one is armed (the process run must
            # set ``worker_step_timeout`` for hang faults to terminate).
            return WorkerTimeoutError(fault.rank, timeout_s=0.0)
        return None
