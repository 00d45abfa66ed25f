"""Persistent process workers over shared-memory arena slabs.

A training step is one list of :class:`WorkerStepTask` s, one per live
rank. The sequential backend runs them in turn on the trainer's one model
(worker ``r + 1``'s forward after worker ``r``'s backward, on one core);
this module runs the same tasks on every core — in processes, because the
Python between numpy kernels holds the GIL — and returns the same
:class:`WorkerStepResult` s, keeping the repo's bit-identity contract:

- every worker rank gets a **persistent child process** holding its own
  model replica, loss head and data shard cache — but not the rank's
  sampling stream: each task carries the trainer's generator for the
  rank and the result returns it advanced, so the trainer owns every
  stream on either backend and a child keeps nothing a respawn must
  rebuild;
- gradients never cross a pipe: each child binds its replica's
  ``Parameter.grad`` slots into the worker's
  :class:`~repro.perf.arena.GradientArena` slab, which lives in a
  ``multiprocessing.shared_memory`` segment — backprop writes the
  fused buffer in place (adding onto the rank's residual in an
  error-feedback method's carried views), and the parent runs the
  existing in-place ring schedule over views of the very same pages —
  only a factored view's thin ``Linear`` products come back as their
  factors (:class:`WorkerStepResult`), to be consumed by the parent's
  compressor like a sequential pass's;
- weights travel the other way through one shared **broadcast buffer**:
  the parent copies the master parameters in before dispatching a step
  (one memcpy — the in-process analogue of the parameter broadcast),
  and every child's replica parameters are bound views into it;
- the two pieces of *state* a worker pass produces besides gradients —
  BatchNorm batch statistics and the loss scalar — are tiny, and ship
  back over the pipe; both backends record the statistics instead of
  applying them (:func:`~repro.perf.replicas.recorded_pass`) and the
  trainer **replays them in slot order** on the master (the recurrence
  ``r <- (1-m) r + m s`` consumes batch statistics that do not depend on
  ``r``), so running buffers are the same bits on either backend;
- per-child :data:`~repro.perf.counters.ALLOC_STATS` deltas ride the
  same reply for the trainer to merge into the parent's counters,
  keeping the zero-copy assertions truthful in process mode.

Roster changes compose: a join spawns a fresh child pinned to the new
rank at the admission boundary (never on the hot path), an ejected
rank's child simply idles — the rank's stream waits, frozen, in the
trainer — and a rejoin resumes it. Slabs created by ``ensure_slots``
growth are discovered lazily: the pool names the slot's segment in every
task message, so children attach on first use.

Spawn-vs-fork: ``fork`` (default where available) inherits the initial
payload for free; ``spawn`` pickles it once at pool construction —
model template, dataset, arena layout — which is why the payload
contains no live OS resources. Both start methods produce bit-identical
trajectories; see ``docs/performance.md`` for the trade-offs.

Supervision: children die and hang. The pool *detects* — pipe EOF or a
dead ``exitcode`` raises :class:`~repro.faults.WorkerDeadError`, a
blown ``step_timeout`` with the child still alive raises
:class:`~repro.faults.WorkerTimeoutError` — and offers the recovery
verbs (:meth:`ProcessWorkerPool.discard`, then ``ensure_ranks`` to spawn
the rank again); *policy* lives in :mod:`repro.faults.supervisor` and the
trainer. A respawned child replays nothing: a crashed or hung task
returns no generator, so the trainer's stream for the rank stays where
it was before the step, and the retried task carries it again — the
invariant that keeps crash recovery bit-identical. A scheduled
:class:`~repro.faults.WorkerFault` arrives in the task
(:attr:`WorkerStepTask.fault`) and the child applies it before any batch
draw, so supervision is testable deterministically.
"""

from __future__ import annotations

import os
import signal
import time
import traceback
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple, Union

import multiprocessing
import numpy as np

from repro.faults.plan import WorkerFault
from repro.faults.supervisor import (
    WorkerDeadError,
    WorkerError,
    WorkerTimeoutError,
)
from repro.nn.loss import CrossEntropyLoss
from repro.nn.module import Module
from repro.nn.parameter import PendingProducts
from repro.perf import shm
from repro.perf.arena import ArenaLayout, GradientArena
from repro.perf.counters import ALLOC_STATS
from repro.perf.replicas import (
    batch_norms,
    detached_copy,
    recorded_pass,
    require_deterministic_forward,
)

if TYPE_CHECKING:  # import cycle: repro.train imports the trainer,
    # which imports this module — the dataset type is annotation-only.
    from repro.train.datasets import ArrayDataset


@dataclass(frozen=True)
class WorkerStepTask:
    """One worker's assignment for one step.

    Attributes:
        rank: the rank id whose pass this is (selects the child).
        slot: the worker's position in this step's live roster; selects
            the arena slab the gradients land in.
        shard_index/shard_world: arguments of ``train_data.shard`` for
            this rank this step: its slot and the live world size, the
            trainer's one shard rule, so shards stay pairwise disjoint and
            jointly exhaustive at every world size.
        rng: the rank's sampling stream, owned by the trainer. The
            sequential backend draws from this very object; a child draws
            from a pickled copy and returns it advanced
            (:attr:`WorkerStepResult.rng`).
        fault: the :class:`~repro.faults.WorkerFault` scheduled for this
            rank at this step, applied before any batch draw; ``None``
            when none is scheduled and on a supervised retry (worker
            faults are one-shot, like a transient crash).
    """

    rank: int
    slot: int
    shard_index: int
    shard_world: int
    rng: np.random.Generator
    fault: Optional[WorkerFault] = None


@dataclass
class WorkerStepResult:
    """What comes back over the pipe: everything the slab does not hold.

    ``factors`` are the thin gradient products a factored slot recorded
    instead of adding (:attr:`GradientArena.factored`), per name in
    backward order — what the slot's pending entry would hold after a
    sequential pass. ``rng`` is the task's generator after the pass's
    draws, for the trainer to keep as the rank's stream.
    """

    loss: float
    batch_stats: List[List[Tuple[np.ndarray, np.ndarray]]]
    factors: Dict[str, PendingProducts]
    alloc_stats: Dict[str, int]
    rng: np.random.Generator


def _scrubbed_template(model: Module) -> Module:
    """A structural deep copy safe to ship to children, in training mode.

    :func:`~repro.perf.replicas.detached_copy` leaves the master's hooks
    and arena grad slots behind; ``train()`` touches only the copy.
    """
    template = detached_copy(model)
    template.train()
    return template


def _self_destruct() -> None:
    """Die the hardest available death (no handlers, no cleanup)."""
    if hasattr(signal, "SIGKILL"):
        os.kill(os.getpid(), signal.SIGKILL)
    os._exit(1)  # non-POSIX fallback: still skips every exit handler


def _worker_main(conn, payload: dict, init_crash: bool = False) -> None:
    """Child entry point: serve backprop tasks until told to close.

    Runs one task at a time; all parallelism comes from the parent
    dispatching to several children at once. Never unlinks a segment —
    attach-only processes close, owners unlink.

    ``init_crash`` makes the child SIGKILL itself *after* attaching the
    broadcast buffer but before reporting ready — the worst moment to
    die during admission (a segment is attached, nothing is cleaned up),
    which is exactly what the crash-safety tests want to exercise.
    """
    model: Module = payload["model"]
    train_data: ArrayDataset = payload["train_data"]
    batch_size: int = payload["batch_size"]
    carried = payload["carried"]
    factored = carried if payload["factored"] else ()
    layout: ArenaLayout = payload["layout"]

    weights_segment = shm.attach_segment(payload["weights_segment"])
    if init_crash:
        _self_destruct()
    weights = np.ndarray(
        (layout.total_elements,), dtype=layout.dtype, buffer=weights_segment.buf
    )
    for name, param in model.named_parameters():
        lo = layout.offsets[name]
        hi = lo + layout.size_of(name)
        param.data = weights[lo:hi].reshape(layout.shapes[name])

    loss_fn = CrossEntropyLoss()
    bns = batch_norms(model)
    shards: Dict[Tuple[int, int], ArrayDataset] = {}
    slabs: Dict[str, Tuple[object, np.ndarray, Dict[str, np.ndarray]]] = {}

    def apply_worker_fault(fault: Optional[WorkerFault]) -> None:
        """Self-apply the task's scheduled fault, before any batch draw,
        so a crashed or hung task has consumed nothing of its stream."""
        if fault is None:
            return
        if fault.kind == "crash":
            _self_destruct()
        elif fault.kind == "hang":
            while True:  # only the parent's step timeout ends this
                time.sleep(0.05)
        elif fault.kind == "slow":
            time.sleep(fault.delay_s)

    def run_task(task: WorkerStepTask, segment_name: str) -> WorkerStepResult:
        apply_worker_fault(task.fault)
        shard_key = (task.shard_index, task.shard_world)
        shard = shards.get(shard_key)
        if shard is None:
            shard = shards[shard_key] = train_data.shard(*shard_key)
        cached = slabs.get(segment_name)
        if cached is None:
            segment = shm.attach_segment(segment_name)
            slab = np.ndarray(
                (layout.total_elements,), dtype=layout.dtype, buffer=segment.buf
            )
            cached = slabs[segment_name] = (
                segment, slab, layout.carve(slab)
            )
        _, _, views = cached
        # Fresh per task: what a failed pass recorded is never shipped.
        pending = {name: PendingProducts(views[name].shape) for name in factored}
        for name, param in model.named_parameters():
            param.attach_grad_slot(
                views[name], carry=name in carried, pending=pending.get(name)
            )
        ALLOC_STATS.reset()
        loss, batch_stats = recorded_pass(
            model, bns, loss_fn, shard, task.rng, batch_size
        )
        return WorkerStepResult(
            loss=loss,
            batch_stats=batch_stats,
            factors={name: p for name, p in pending.items() if p},
            alloc_stats=ALLOC_STATS.snapshot(),
            rng=task.rng,
        )

    conn.send(("ready",))
    while True:
        message = conn.recv()
        kind = message[0]
        if kind == "step":
            try:
                result = run_task(message[1], message[2])
                conn.send(("ok", result))
            except BaseException as exc:  # ship the failure, keep serving
                conn.send(("error", repr(exc), traceback.format_exc()))
        elif kind == "close":
            break
        else:
            conn.send(("error", f"unknown message kind {kind!r}", ""))
    for name, param in model.named_parameters():
        param.detach_grad_slot()
        param.data = np.array(param.data)  # drop the weights-view mapping
    for segment, slab, views in list(slabs.values()):
        del slab, views
        shm.release_segment(segment, unlink=False)
    slabs.clear()
    del weights
    shm.release_segment(weights_segment, unlink=False)
    conn.send(("closed",))
    conn.close()


class ProcessWorkerPool:
    """One persistent child process per worker rank, slabs shared.

    Args:
        model: the master model (stays in the parent; children receive a
            scrubbed structural copy and read weights through the shared
            broadcast buffer).
        arena: a ``backing="shared"`` :class:`GradientArena`; children
            write their gradients straight into its slabs.
        train_data: the full training set; children derive shards
            locally (deterministic strided slicing), so elastic
            re-sharding costs one tuple per task, not a data transfer.
        batch_size: the trainer's per-worker batch size (fixed for the
            pool's lifetime, like the trainer's).
        start_method: ``"fork"``, ``"spawn"``, or ``None`` to pick fork
            when the platform offers it. Spawn is slower to start but
            works everywhere; trajectories are bit-identical either way.
        step_timeout: optional per-step ceiling in seconds on waiting
            for any one child's reply; a dead child then raises
            :class:`~repro.faults.WorkerDeadError` and a deadlocked one
            :class:`~repro.faults.WorkerTimeoutError` instead of hanging
            the training loop forever.
    """

    def __init__(
        self,
        model: Module,
        arena: GradientArena,
        train_data: ArrayDataset,
        *,
        batch_size: int,
        start_method: Optional[str] = None,
        step_timeout: Optional[float] = None,
    ):
        # ``close()`` must be safe on a partially constructed pool, so the
        # attributes it reads exist before anything that can raise or leak.
        self._children: Dict[int, Tuple[object, object]] = {}
        self._closed = False
        self._weights_segment = None
        if not arena.is_shared:
            raise ValueError(
                "ProcessWorkerPool requires a shared-memory arena "
                "(GradientArena(..., backing='shared'))"
            )
        require_deterministic_forward(model)
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else "spawn"
        self._ctx = multiprocessing.get_context(start_method)
        self.start_method = start_method
        self.step_timeout = step_timeout
        self._arena = arena
        layout = arena.layout
        self._layout = layout
        self._weights_segment = shm.create_segment(
            max(1, layout.total_elements) * layout.dtype.itemsize
        )
        try:
            self._weights = np.ndarray(
                (layout.total_elements,),
                dtype=layout.dtype,
                buffer=self._weights_segment.buf,
            )
            self._weight_views = layout.carve(self._weights)
            self._payload = {
                "model": _scrubbed_template(model),
                "layout": layout,
                "train_data": train_data,
                "batch_size": batch_size,
                # Bound as the parent binds them.
                "carried": arena.carried,
                "factored": bool(arena.factored),
                "weights_segment": self._weights_segment.name,
            }
        except BaseException:
            # Construction failed after the segment was created: release
            # it here, because no caller ever gets a handle to close().
            self.close()
            raise
        #: Ranks whose next ``_spawn`` should die mid-seed (test/chaos
        #: seam for child-crash-during-admission coverage).
        self._spawn_crashes: Dict[int, int] = {}
        #: Wall-clock seconds of the most recent weights broadcast (a
        #: benchmark probe).
        self.last_broadcast_s = 0.0

    # ------------------------------------------------------------------
    # Child lifecycle
    # ------------------------------------------------------------------
    def ensure_ranks(self, ranks: List[int]) -> None:
        """Spawn children for any ranks not yet served (admission path)."""
        for rank in ranks:
            if rank not in self._children:
                self._spawn(rank)

    def _spawn(self, rank: int) -> None:
        init_crash = self._spawn_crashes.get(rank, 0) > 0
        if init_crash:
            self._spawn_crashes[rank] -= 1
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, self._payload, init_crash),
            name=f"repro-worker-{rank}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        try:
            reply = self._recv(parent_conn, rank, process, phase="spawn")
            if reply != ("ready",):
                raise WorkerError(
                    rank,
                    f"worker process for rank {rank} failed to initialize: "
                    f"{reply!r}",
                )
        except WorkerError:
            # Never leave a half-initialized child behind: close the pipe
            # and reap (or kill) the process before propagating.
            try:
                parent_conn.close()
            except OSError:
                pass
            if process.is_alive():
                process.kill()
            process.join(5.0)
            raise
        self._children[rank] = (parent_conn, process)

    def _recv(self, conn, rank: int, process=None, phase: str = "step"):
        if process is None and rank in self._children:
            process = self._children[rank][1]
        if self.step_timeout is not None and not conn.poll(self.step_timeout):
            if process is not None and not process.is_alive():
                process.join(1.0)
                raise WorkerDeadError(rank, process.exitcode, phase=phase)
            raise WorkerTimeoutError(rank, self.step_timeout)
        try:
            return conn.recv()
        except (EOFError, OSError):
            exitcode = None
            if process is not None:
                process.join(5.0)
                exitcode = process.exitcode
            raise WorkerDeadError(rank, exitcode, phase=phase) from None

    def discard(self, rank: int, timeout: float = 5.0) -> None:
        """Forget ``rank``'s child: kill it if alive, reap it, close the
        pipe (idempotent — discarding an unknown rank is a no-op).

        The crash-safe half of supervision: a SIGKILLed child never ran
        its cleanup, but it only ever *attached* segments — the parent
        owns them through the :mod:`repro.perf.shm` registry, so reaping
        the process and dropping the pipe reclaims everything the child
        held (its mappings die with it; the slab stays valid under the
        parent's ownership). Nothing of the rank's is lost with it: its
        sampling stream lives in the trainer, so ``ensure_ranks`` can
        spawn a fresh child that serves the rank's next task as the dead
        one would have.
        """
        entry = self._children.pop(rank, None)
        if entry is None:
            return
        conn, process = entry
        try:
            conn.close()
        except OSError:
            pass
        if process.is_alive():
            process.kill()  # SIGKILL: a *hung* child won't honor terminate
        process.join(timeout)

    def inject_spawn_crash(self, rank: int, times: int = 1) -> None:
        """Arm ``times`` mid-seed deaths for ``rank``'s next spawn(s).

        Deterministic injection seam for the child-crashes-during-
        admission scenario: the next ``_spawn`` for ``rank`` dies by
        SIGKILL after attaching the broadcast buffer, before reporting
        ready.
        """
        if times < 1:
            raise ValueError(f"times must be >= 1, got {times}")
        self._spawn_crashes[rank] = self._spawn_crashes.get(rank, 0) + times

    @property
    def worker_ranks(self) -> List[int]:
        """Ranks with a live child, in spawn order."""
        return list(self._children)

    # ------------------------------------------------------------------
    # Step protocol
    # ------------------------------------------------------------------
    def broadcast_weights(self, model: Module) -> None:
        """Copy the master parameters into the shared broadcast buffer.

        One full-model memcpy per step — the process backend's only
        per-step copy, standing in for DDP's implicit weight coherence.
        Values are copied bitwise, so child forwards see exactly the
        arrays the sequential path would use.
        """
        start = time.perf_counter()
        for name, param in model.named_parameters():
            np.copyto(self._weight_views[name], param.data)
        self.last_broadcast_s = time.perf_counter() - start

    def run_step(
        self, tasks: List[WorkerStepTask], capture_errors: bool = False
    ) -> List[Union[WorkerStepResult, WorkerError]]:
        """Dispatch one step's tasks and collect replies in slot order.

        All tasks are sent before any reply is read, so children execute
        concurrently, and every reply is read before anything is raised, so
        no child's reply is left for the next step to read. A worker
        failure (death, hang past the step timeout) raises the typed
        :class:`~repro.faults.WorkerError` it classified to — or, with
        ``capture_errors=True`` (the supervised path), lands *as that error
        object* in the result list for the caller's recovery decision.
        Task-level exceptions inside a healthy child always raise, with
        the child's traceback: they are bugs, not process faults.
        """
        if self._closed:
            raise RuntimeError("run_step called on a closed pool")
        sent: Dict[int, Optional[WorkerError]] = {}
        for task in tasks:
            conn, process = self._children[task.rank]
            try:
                conn.send(("step", task, self._arena.segment_name(task.slot)))
                sent[task.rank] = None
            except (BrokenPipeError, OSError):
                process.join(1.0)
                sent[task.rank] = WorkerDeadError(task.rank, process.exitcode)
        results: List[Union[WorkerStepResult, Exception]] = []
        for task in tasks:
            error = sent[task.rank]
            if error is not None:
                results.append(error)
                continue
            try:
                reply = self._recv(self._children[task.rank][0], task.rank)
            except WorkerError as dead:
                results.append(dead)
                continue
            if reply[0] == "error":
                results.append(RuntimeError(
                    f"worker process for rank {task.rank} failed: "
                    f"{reply[1]}\n{reply[2]}"
                ))
                continue
            results.append(reply[1])
        for result in results:
            if isinstance(result, Exception) and not (
                capture_errors and isinstance(result, WorkerError)
            ):
                raise result
        return results

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------
    def close(self, timeout: float = 5.0) -> None:
        """Stop every child and release the broadcast buffer.

        Idempotent and crash-safe by contract: a double close is a no-op,
        a close after a child was SIGKILLed (broken pipes, zombie
        processes) still reaps everything, and a close on a partially
        constructed pool (construction failed mid-``__init__``) releases
        whatever actually exists without raising. The broadcast segment
        is the pool's only owned shm resource; it is released exactly
        once through the :mod:`repro.perf.shm` ownership registry.
        """
        if getattr(self, "_closed", True) and getattr(
            self, "_weights_segment", None
        ) is None:
            return
        self._closed = True
        for rank, (conn, process) in list(self._children.items()):
            try:
                conn.send(("close",))
            except (BrokenPipeError, OSError):
                pass  # already dead: reaped below
        for rank, (conn, process) in list(self._children.items()):
            try:
                if conn.poll(timeout):
                    conn.recv()  # ("closed",)
            except (EOFError, OSError):
                pass
            try:
                conn.close()
            except OSError:
                pass
            process.join(timeout)
            if process.is_alive():
                process.terminate()
                process.join(timeout)
                if process.is_alive():
                    process.kill()
                    process.join(timeout)
        self._children = {}
        # Drop every view into the segment before releasing it; attribute
        # existence is conditional when construction failed early.
        if hasattr(self, "_weight_views"):
            del self._weight_views
        if hasattr(self, "_weights"):
            del self._weights
        segment = getattr(self, "_weights_segment", None)
        if segment is not None:
            self._weights_segment = None
            shm.release_segment(segment, unlink=True)
