"""Synchronous data-parallel trainer over simulated workers.

Semantics mirror DDP + the paper's compression prototypes:

- every worker holds the same model weights (enforced by construction: one
  physical replica evaluated per worker shard, like DDP's lockstep);
- per step, each worker computes local gradients on its own batch,
  written straight into its :class:`~repro.perf.arena.GradientArena` slab:
  one :class:`~repro.perf.procpool.WorkerStepTask` per live rank, run in
  turn on the trainer's model (``workers="seq"``) or by the
  :class:`~repro.perf.procpool.ProcessWorkerPool`'s children
  (``workers="process"``), both answering with the same results;
- the :class:`~repro.train.reducer.BucketedReducer` drives the
  :class:`~repro.optim.aggregators.GradientAggregator`'s staged protocol
  over the arena's buckets (``buffer_bytes=None``: one bucket) and the
  measured collectives combine them into the global gradient — the one
  aggregation path, whatever the method, backend or resilience setting;
- a single SGD update applies the global gradient.

The trainer keeps one physical model and replays it per worker batch; this
is numerically identical to per-worker replicas under synchronous updates,
while per-worker *compressor* state — error-feedback residuals in each
rank's own arena slab, carried factors in the aggregator — preserves each
method's true distributed behaviour.

Resilience (optional): pass a
:class:`~repro.train.resilience.ResilienceConfig` to arm the trainer-level
recovery ladder — non-finite skip-step with EF residual reset, temporary
fallback to uncompressed aggregation, and divergence rollback to the last
good checkpoint. Pair it with a
:class:`~repro.faults.resilient.ResilientProcessGroup` to also survive
injected communication faults; the trainer then follows the group's live
roster: at every step boundary the group commits the ejections of dead
ranks and the admissions its fault plan (or the worker supervisor)
schedules, the trainer syncs each admitted rank from a donor, and the data
is re-sharded over the new roster.
"""

from __future__ import annotations

import tempfile
from dataclasses import replace
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.faults.resilient import ResilientProcessGroup, RosterChange
from repro.faults.supervisor import (
    SupervisionPolicy,
    WorkerError,
    WorkerSupervisor,
)
from repro.nn.loss import CrossEntropyLoss
from repro.nn.module import Module
from repro.optim.aggregators import AllReduceAggregator, GradientAggregator
from repro.optim.decoded import aggregate_is_finite
from repro.optim.lr_scheduler import WarmupMultiStepSchedule
from repro.optim.sgd import SGD
from repro.perf.arena import ArenaGrads, GradientArena
from repro.perf.counters import ALLOC_STATS
from repro.perf.procpool import (
    ProcessWorkerPool,
    WorkerStepResult,
    WorkerStepTask,
)
from repro.perf.replicas import (
    batch_norms,
    recorded_pass,
    require_deterministic_forward,
)
from repro.train.checkpoint import CheckpointError, CheckpointManager
from repro.train.datasets import ArrayDataset
from repro.train.history import TrainingHistory
from repro.train.reducer import BucketedReducer
from repro.train.resilience import (
    CHECKPOINT_KEEP,
    DIVERGENCE_FACTOR,
    LOSS_EMA_BETA,
    ResilienceConfig,
    ResilienceLog,
)
from repro.utils.seeding import rank_rng
from repro.utils.validation import is_finite


def evaluate(
    model: Module, data: ArrayDataset, batch_size: int = 256,
    max_batches: int = 0,
) -> float:
    """Accuracy of ``model`` on ``data`` (all of it unless ``max_batches``
    limits the batches), in eval mode; leaves the model in train mode."""
    model.eval()
    correct = 0
    total = 0
    for start in range(0, len(data), batch_size):
        inputs = model.as_input(data.inputs[start : start + batch_size])
        labels = data.labels[start : start + batch_size]
        logits = model(inputs)
        correct += int((logits.argmax(axis=1) == labels).sum())
        total += len(labels)
        if max_batches and start // batch_size + 1 >= max_batches:
            break
    model.train()
    return correct / max(1, total)


class _InProcessWorkers:
    """The sequential backend: the process pool's step protocol, in-process.

    Each task runs in turn on the trainer's one model, bound to the task's
    slab, drawing from ``trainer.train_shards[rank]`` with the task's
    generator — ``trainer._rngs[rank]`` itself, so handing it back changes
    nothing. The task's :class:`~repro.faults.WorkerFault` becomes the
    error its child would have died with, at the point the child applies
    it (before any batch draw); the gradient factors stay in the arena's
    pending entries and the allocation counters in this process, so the
    results carry neither.
    """

    def __init__(self, trainer: "DataParallelTrainer"):
        self._trainer = trainer

    def ensure_ranks(self, ranks: List[int]) -> None:
        """Nothing to spawn: every rank runs here."""

    def broadcast_weights(self, model: Module) -> None:
        """Nothing to copy: every pass reads the master weights."""

    def discard(self, rank: int) -> None:
        """Nothing to reap: a failed rank lost no process."""

    def close(self) -> None:
        """Nothing to release."""

    def run_step(
        self, tasks: List[WorkerStepTask], capture_errors: bool = False
    ) -> List[Union[WorkerStepResult, WorkerError]]:
        trainer = self._trainer
        results: List[Union[WorkerStepResult, WorkerError]] = []
        for task in tasks:
            trainer.reducer.begin_worker(task.slot)
            error = (
                None if task.fault is None
                else WorkerSupervisor.simulated_failure(task.fault)
            )
            if error is not None:
                if not capture_errors:
                    raise error
                results.append(error)
                continue
            trainer._arena.bind(trainer.model, task.slot)
            loss, batch_stats = recorded_pass(
                trainer.model, trainer._bns, trainer.loss_fn,
                trainer.train_shards[task.rank], task.rng, trainer.batch_size,
            )
            results.append(
                WorkerStepResult(loss, batch_stats, {}, {}, task.rng)
            )
        return results


class DataParallelTrainer:
    """Train one model with data parallelism across simulated workers.

    ``optimizer`` is duck-typed: anything exposing ``step(grads)`` and an
    ``lr`` attribute works, as :class:`~repro.optim.sgd.SGD` does.
    """

    def __init__(
        self,
        model: Module,
        optimizer: SGD,
        aggregator: GradientAggregator,
        train_data: ArrayDataset,
        test_data: ArrayDataset,
        batch_size_per_worker: int = 32,
        schedule: Optional[WarmupMultiStepSchedule] = None,
        seed: int = 0,
        resilience: Optional[ResilienceConfig] = None,
        buffer_bytes: Optional[int] = None,
        workers: str = "seq",
        worker_step_timeout: Optional[float] = None,
        supervision: Optional[SupervisionPolicy] = None,
    ):
        if batch_size_per_worker < 1:
            raise ValueError(
                f"batch_size_per_worker must be >= 1, got {batch_size_per_worker}"
            )
        if workers not in ("seq", "process"):
            raise ValueError(
                f"workers must be 'seq' or 'process', got {workers!r}"
            )
        if workers == "process":
            # Screened before anything is allocated: a rejected model must
            # not cost a shared-memory segment.
            require_deterministic_forward(model)
        self.workers = workers
        self.model = model
        self.optimizer = optimizer
        self.aggregator = aggregator
        group = aggregator.group
        self.world_size = group.world_size
        injector = getattr(group, "injector", None)
        plan = injector.plan if injector is not None else None
        grows = (plan is not None and bool(plan.membership_events())) or (
            supervision is not None
            and supervision.on_failure == "eject"
            and supervision.respawn_delay_steps is not None
        )
        # A node topology is a property of the group (``ProcessGroup(world,
        # topology=...)``): it changes which wire schedule is accounted,
        # never a value (see repro.comm.hierarchical).
        if group.topology is not None and grows:
            raise ValueError(
                "topology and membership are mutually exclusive: the "
                "node topology fixes the world size, an elastic roster "
                "changes it"
            )
        self.seed = seed
        self.train_data = train_data
        # --- worker-process supervision (inert when supervision is None) ---
        self._supervisor: Optional[WorkerSupervisor] = None
        if supervision is not None:
            if (supervision.on_failure == "eject"
                    and not isinstance(group, ResilientProcessGroup)):
                raise ValueError(
                    "supervision on_failure='eject' requires a "
                    "ResilientProcessGroup: it commits the ejection and any "
                    "rejoin at step boundaries"
                )
            if (workers == "process" and worker_step_timeout is None
                    and plan is not None
                    and any(f.kind == "hang" for f in plan.worker_faults)):
                raise ValueError(
                    "the fault plan schedules 'hang' worker faults but "
                    "worker_step_timeout is not set: a hung child is only "
                    "observable through the step timeout, so the run would "
                    "stall forever"
                )
            self._supervisor = WorkerSupervisor(
                supervision, plan=plan, stats=getattr(group, "stats", None)
            )
        # Shards and sampling streams are keyed by *rank id*; a rank draws
        # from slice ``slot`` of ``len(roster)`` (``_reshard``).
        self._reshard(list(range(self.world_size)))
        self.test_data = test_data
        self.batch_size = batch_size_per_worker
        self.schedule = schedule
        self.loss_fn = CrossEntropyLoss()
        self._bns = batch_norms(model)
        self._rngs: Dict[int, np.random.Generator] = {
            rank: rank_rng(seed, rank) for rank in range(self.world_size)
        }
        # --- hot-path state: gradient arena + optional process workers ---
        self.buffer_bytes = buffer_bytes
        # The arena is the only gradient storage and the reducer the only
        # way out of it: ``buffer_bytes=None`` is the one-bucket layout,
        # i.e. monolithic aggregation.
        self._arena = GradientArena(
            model,
            self.world_size,
            bucket_bytes=buffer_bytes,
            backing="shared" if workers == "process" else "private",
        )
        #: Drives every step's aggregation (timings, eager/deferred counts).
        self.reducer = BucketedReducer(model, self._arena, aggregator)
        self._closed = False
        #: Runs each step's tasks; the process pool replaces it below.
        self._workers = _InProcessWorkers(self)
        if workers == "process":
            try:
                self._workers = ProcessWorkerPool(
                    model,
                    self._arena,
                    train_data,
                    batch_size=self.batch_size,
                    step_timeout=worker_step_timeout,
                )
            except BaseException:
                # No caller ever gets a handle to close(): release the
                # shared slabs and the reducer's hooks here.
                self.close()
                raise
        # --- resilience state (inert when resilience is None) ---
        self.resilience = resilience
        self.resilience_log = ResilienceLog() if resilience is not None else None
        self._fallback_aggregator: Optional[AllReduceAggregator] = None
        self._fallback_remaining = 0
        self._loss_ema: Optional[float] = None
        self._divergent_streak = 0
        self._step_count = 0
        self._checkpoints: Optional[CheckpointManager] = None

    @property
    def supervisor(self) -> Optional[WorkerSupervisor]:
        """The armed worker supervisor, or ``None`` (stats live on it)."""
        return self._supervisor

    def _run_workers(self, ranks: List[int]) -> List[float]:
        """Run the live workers' passes; return their losses in slot order.

        One task per live rank goes to the worker backend (children for
        newly admitted ranks are spawned first — an admission-boundary
        cost, never a steady-state one), carrying the rank's sampling
        stream and the fault the plan schedules for it at this step; the
        gradients land in the arena slabs. Failed workers go through
        :meth:`_recover`, then one loop consumes what came back besides
        the slabs: the advanced stream kept as the rank's, BatchNorm batch
        statistics replayed onto the master in slot order, allocation
        deltas merged, and the gradient factors a process child's factored
        slot kept extended into the slot's pending entry — so the
        trajectory is the same bits on either backend.
        """
        workers = self._workers
        self._ensure_ranks_supervised(ranks)
        workers.broadcast_weights(self.model)
        plan = self._supervisor.plan if self._supervisor is not None else None
        tasks = [
            WorkerStepTask(
                rank=rank,
                slot=slot,
                shard_index=slot,
                shard_world=len(ranks),
                rng=self._rngs[rank],
                fault=(
                    plan.worker_fault_at(rank, self._step_count)
                    if plan is not None else None
                ),
            )
            for slot, rank in enumerate(ranks)
        ]
        results = workers.run_step(
            tasks, capture_errors=self._supervisor is not None
        )
        failures = [
            (index, result)
            for index, result in enumerate(results)
            if isinstance(result, WorkerError)
        ]
        if failures:
            results = self._recover(tasks, results, failures)
        losses = []
        for task, result in zip(tasks, results):
            if not isinstance(result, WorkerStepResult):
                continue  # ejected: its slot aggregates the stale slab
            self._rngs[task.rank] = result.rng
            losses.append(result.loss)
            for bn, stats in zip(self._bns, result.batch_stats):
                for mean, var in stats:
                    bn.apply_batch_stats(mean, var)
            ALLOC_STATS.merge(result.alloc_stats)
            pending = self._arena.grads(task.slot).pending
            for name, products in result.factors.items():
                pending[name].extend(products)
        return losses

    # ------------------------------------------------------------------
    # Worker supervision
    # ------------------------------------------------------------------
    def _ensure_ranks_supervised(self, ranks: List[int]) -> None:
        """Spawn missing children, paying for admission-time crashes.

        A child that dies while seeding (before reporting ready) raises a
        typed :class:`WorkerError` out of ``ensure_ranks``. Under
        supervision each such death costs one respawn from the budget and
        the spawn is retried, so a transient admission crash never kills
        the run; without a supervisor the typed error propagates.
        """
        while True:
            try:
                self._workers.ensure_ranks(ranks)
                return
            except WorkerError as error:
                if self._supervisor is None:
                    raise
                self._supervisor.record_failure(error)
                self._supervisor.consume_restart(error)

    def _eject_worker(self, rank: int) -> None:
        """Mark ``rank`` for boundary ejection; maybe schedule its rejoin."""
        group = self.aggregator.group
        group.mark_worker_failed(rank)
        assert self._supervisor is not None
        delay = self._supervisor.policy.respawn_delay_steps
        if delay is not None:
            group.schedule_rejoin(rank, delay)

    def _recover(
        self,
        tasks: List[WorkerStepTask],
        results: list,
        failures: List[Tuple[int, WorkerError]],
    ) -> list:
        """Recover from worker failures after the step collected.

        ``"restart"``: discard the dead/hung worker, respawn it and re-run
        the failed task *within this step* without its fault. The failed
        attempt returned no generator, so the retry carries the rank's
        stream as it stood before the step and consumes exactly the draws
        the fault-free run would have: the trajectory stays bit-identical
        to fault-free. A repeat failure of the same task raises.

        ``"eject"``: discard the worker and mark the rank failed; its
        slot's stale slab feeds the (survivor-rescaled) aggregation and
        the ejection commits at the next boundary.
        """
        supervisor = self._supervisor
        assert supervisor is not None
        retry_indices: List[int] = []
        for index, error in failures:
            supervisor.record_failure(error)
            self._workers.discard(error.rank)
            if supervisor.policy.on_failure == "restart":
                supervisor.consume_restart(error)
                retry_indices.append(index)
            else:
                self._eject_worker(error.rank)
        if retry_indices:
            retry_tasks = [
                replace(tasks[index], fault=None)
                for index in retry_indices
            ]
            self._ensure_ranks_supervised([task.rank for task in retry_tasks])
            # A repeat failure raises.
            retried = self._workers.run_step(retry_tasks)
            for index, result in zip(retry_indices, retried):
                results[index] = result
        if not any(isinstance(r, WorkerStepResult) for r in results):
            raise failures[0][1]
        return results

    def _live_ranks(self) -> List[int]:
        """The ranks participating in this step.

        The group commits the roster changes due at this boundary (a plain
        group's roster is fixed), syncing each admission as it commits
        (:meth:`_sync_admission`). After a change the data is re-sharded
        and each new rank gets its sampling stream and slab; the
        aggregator's roster is re-synced every step so per-rank compressor
        state follows rank ids, never slot positions.
        """
        ranks = self.aggregator.group.begin_step(self._sync_admission)
        if ranks != list(self.train_shards):
            self._reshard(ranks)
            for rank in ranks:
                if rank not in self._rngs:
                    self._rngs[rank] = rank_rng(self.seed, rank)
            self._arena.ensure_slots(len(ranks))
        self.aggregator.set_roster(ranks)
        return ranks

    def _reshard(self, ranks: List[int]) -> None:
        """Rebuild ``train_shards``, keyed in roster order, for ``ranks``.

        Shards go by *roster position* over the live world — slice ``slot``
        of ``len(ranks)`` — so they stay pairwise disjoint and jointly
        exhaustive at every world size: no sample is ever dropped or
        double-owned after a roster change.
        """
        self.train_shards: Dict[int, ArrayDataset] = {
            rank: self.train_data.shard(slot, len(ranks))
            for slot, rank in enumerate(ranks)
        }

    def _sync_admission(self, change: RosterChange) -> None:
        """Bring a rank admitted by ``change`` up to date with its donor.

        The model weights and optimizer state are broadcast from the donor
        through the group, over the roster the admission produced. Every
        worker already shares the one physical model, so the broadcast's
        numerics are a no-op, but the sync traffic is measured on the wire
        like any other collective. Then the aggregator warm-starts the
        rank's compressor state from the donor's
        (:meth:`~repro.optim.aggregators.GradientAggregator.admit_rank`).
        """
        group = self.aggregator.group
        chunks = [
            param.data.reshape(-1) for _, param in self.model.named_parameters()
        ]
        velocity = getattr(self.optimizer, "_velocity", None) or {}
        chunks.extend(velocity[name].reshape(-1) for name in sorted(velocity))
        payload = np.concatenate(chunks)
        if payload.size:
            root = group.live_ranks.index(change.donor)
            group.broadcast(
                [
                    payload if slot == root else np.zeros_like(payload)
                    for slot in range(group.world_size)
                ],
                root=root,
            )
        self.aggregator.admit_rank(change.rank, donor_rank=change.donor)

    def train_step(self) -> float:
        """One synchronous step across the live workers; returns mean loss.

        With resilience armed, a step may be skipped (non-finite numerics),
        aggregated uncompressed (fallback window), or trigger a rollback —
        see :mod:`repro.train.resilience` for the ladder.
        """
        if self._closed:
            raise RuntimeError("train_step called on a closed trainer")
        ranks = self._live_ranks()
        # Every step aggregates through the reducer, bucket by bucket.
        # Hook-driven (eager, WFBP) firing needs sequential workers — the
        # final worker's backward is the firing pass — and no resilience,
        # whose finite-checks must see the local gradients before any
        # communication; such steps fire every bucket, deferred, in
        # ``finish_step``. Supervision also forces deferred buckets: an
        # ejected final worker never runs the firing backward pass, so
        # hook-driven buckets could never complete the step.
        reducer = self.reducer
        # A step that raised mid-pass left its factors behind; they belong
        # to no step, so they never reach a compressor.
        self._arena.drop_factors()
        reducer.begin_step(
            len(ranks),
            eager=self.workers == "seq"
            and self.resilience is None
            and self._supervisor is None,
        )
        losses = self._run_workers(ranks)
        mean_loss = float(np.mean(losses))
        self._step_count += 1
        if self.resilience is None:
            self.optimizer.step(reducer.finish_step())
            return mean_loss
        per_worker = [self._arena.grads(slot) for slot in range(len(ranks))]
        return self._resilient_apply(mean_loss, per_worker)

    # ------------------------------------------------------------------
    # Resilience ladder
    # ------------------------------------------------------------------
    def _resilient_apply(
        self, mean_loss: float, per_worker: List[ArenaGrads]
    ) -> float:
        cfg = self.resilience
        log = self.resilience_log
        assert cfg is not None and log is not None
        loss_finite = bool(np.isfinite(mean_loss))
        # Each slab's residual and what backward left beside it: the
        # pending factors of a gradient kept as a product.
        grads_finite = loss_finite and all(
            is_finite(array) for grads in per_worker for array in grads.arrays()
        )
        applied = False
        if grads_finite:
            aggregator = self._current_aggregator()
            aggregated = self.reducer.finish_step(aggregator)
            if not aggregate_is_finite(aggregated):
                self._skip_step("non-finite aggregated gradient")
            else:
                self.optimizer.step(aggregated)
                applied = True
            if aggregator is not self.aggregator:
                # The fallback reduced E + G = G (the skip emptied E) in place.
                self._arena.clear_residuals()
        else:
            self._skip_step("non-finite local loss or gradient")

        divergent = not applied
        if loss_finite:
            baseline = self._loss_ema
            if (applied and baseline is not None
                    and mean_loss > DIVERGENCE_FACTOR * max(baseline, 1e-12)):
                divergent = True
            if applied:
                self._loss_ema = (
                    mean_loss if baseline is None
                    else LOSS_EMA_BETA * baseline
                    + (1.0 - LOSS_EMA_BETA) * mean_loss
                )

        if divergent:
            self._divergent_streak += 1
            log.divergence_alarms += 1
            if self._divergent_streak >= cfg.divergence_patience:
                self._rollback()
        else:
            self._divergent_streak = 0
            if (cfg.checkpoint_interval
                    and self._step_count % cfg.checkpoint_interval == 0):
                self._save_good_checkpoint()
        if loss_finite:
            return mean_loss
        # Keep histories finite: report the running baseline for a skipped
        # non-finite step (0.0 when the very first step blows up).
        return float(self._loss_ema) if self._loss_ema is not None else 0.0

    def _current_aggregator(self) -> GradientAggregator:
        """The aggregator for this step, honouring the fallback window."""
        cfg = self.resilience
        log = self.resilience_log
        assert cfg is not None and log is not None
        if self._fallback_remaining <= 0:
            return self.aggregator
        self._fallback_remaining -= 1
        log.fallback_steps_run += 1
        if self._fallback_aggregator is None:
            self._fallback_aggregator = AllReduceAggregator(self.aggregator.group)
        self._fallback_aggregator.set_roster(self.aggregator.roster)
        return self._fallback_aggregator

    def _skip_step(self, reason: str) -> None:
        """Apply no update; reset EF residuals; open the fallback window."""
        log = self.resilience_log
        assert log is not None
        log.skipped_steps += 1
        log.note(f"step {self._step_count}: skipped ({reason})")
        self.aggregator.reset()
        log.residual_resets += 1
        self._open_fallback_window()

    def _open_fallback_window(self) -> None:
        """Run the next ``fallback_steps`` steps uncompressed (a compressing
        aggregator only); counts an activation unless one is running."""
        cfg = self.resilience
        log = self.resilience_log
        assert cfg is not None and log is not None
        if cfg.fallback_steps > 0 and not isinstance(
            self.aggregator, AllReduceAggregator
        ):
            if self._fallback_remaining <= 0:
                log.fallback_activations += 1
            self._fallback_remaining = cfg.fallback_steps

    def _save_good_checkpoint(self) -> None:
        cfg = self.resilience
        log = self.resilience_log
        assert cfg is not None and log is not None
        if self._checkpoints is None:
            directory = cfg.checkpoint_dir or tempfile.mkdtemp(prefix="repro-ckpt-")
            self._checkpoints = CheckpointManager(directory, keep=CHECKPOINT_KEEP)
        self._checkpoints.save(
            self.model, self.optimizer, metadata={"step": self._step_count}
        )
        log.checkpoints_saved += 1

    def _rollback(self) -> None:
        """Restore the newest loadable checkpoint and re-warm compression."""
        cfg = self.resilience
        log = self.resilience_log
        assert cfg is not None and log is not None
        self._divergent_streak = 0
        if self._checkpoints is None:
            # Nothing to restore yet: the residual reset + fallback window
            # opened by the skip path is the best available recovery.
            log.note(f"step {self._step_count}: rollback requested "
                     f"before any checkpoint existed")
            return
        try:
            metadata = self._checkpoints.restore(self.model, self.optimizer)
        except CheckpointError as exc:
            log.note(f"step {self._step_count}: rollback failed ({exc})")
            return
        log.rollbacks += 1
        log.note(f"step {self._step_count}: rolled back to "
                 f"step {metadata.get('step', '?')}")
        self.aggregator.reset()
        log.residual_resets += 1
        self._loss_ema = None
        self._open_fallback_window()
        if log.rollbacks > cfg.max_rollbacks:
            raise RuntimeError(
                f"training diverged: exceeded max_rollbacks="
                f"{cfg.max_rollbacks} restorations"
            )

    def close(self) -> None:
        """Detach from the model; release pools and shared memory (idempotent).

        The reducer's gradient-ready hooks come off the model's parameters
        first, so a closed trainer — its aggregator, arena and group — is no
        longer reachable from the model and a later trainer on the same
        model runs only its own hooks. Only the process backend owns real
        OS resources (child processes, ``/dev/shm`` segments): shared
        arenas **must** be closed or the test suite's leak detector will
        flag the run. ``with DataParallelTrainer(...) as trainer:`` does it
        automatically.
        """
        self._closed = True
        self.reducer.close()
        self._workers.close()
        if self._arena.is_shared:
            self._arena.unbind(self.model)
            self._arena.close()

    def __enter__(self) -> "DataParallelTrainer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def evaluate(self, max_batches: int = 0, batch_size: int = 256) -> float:
        """Test-set accuracy (full set unless ``max_batches`` limits it)."""
        return evaluate(self.model, self.test_data, batch_size, max_batches)

    def run(
        self,
        epochs: int,
        steps_per_epoch: int,
        method_label: str = "",
    ) -> TrainingHistory:
        """Train for ``epochs`` and record the convergence curve."""
        if epochs < 1 or steps_per_epoch < 1:
            raise ValueError("epochs and steps_per_epoch must be >= 1")
        history = TrainingHistory(method_label or self.aggregator.method)
        for epoch in range(epochs):
            if self.schedule is not None:
                self.schedule.set_epoch(epoch)
            losses = [self.train_step() for _ in range(steps_per_epoch)]
            accuracy = self.evaluate()
            history.record(
                epoch, float(np.mean(losses)), accuracy, self.optimizer.lr
            )
        return history
