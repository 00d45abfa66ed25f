"""Worker-process supervision: typed failures, recovery rungs, twins.

The contract under test, per ``docs/fault_tolerance.md``:

- the pool raises *typed* errors (:class:`WorkerDeadError` /
  :class:`WorkerTimeoutError`, both ``WorkerError``, both
  ``RuntimeError``) instead of bare ``RuntimeError``;
- under the ``"restart"`` policy a crashed/hung child is respawned and
  the failed task re-run within the step, carrying the rank's sampling
  stream as the trainer held it before the step (children keep no
  stream, so a respawn replays nothing) — the recovered trajectory is
  **bit-identical to the fault-free run**;
- under the ``"eject"`` policy the step degrades, the resilient group
  ejects the rank at the next boundary and later readmits it — bit-identical to the *sequential* twin simulating the
  same :class:`WorkerFault` schedule;
- every recovery path leaves zero leaked shm segments (the suite-wide
  conftest guard enforces this for every test here).

Every ``WorkerFault`` kind (``crash``, ``hang``, ``slow``) is exercised
under ``pytest -m faults``.
"""

import multiprocessing
import os
import signal

import numpy as np
import pytest

from repro.comm.process_group import ProcessGroup
from repro.faults import (
    FaultInjector,
    FaultPlan,
    SupervisionPolicy,
    WorkerDeadError,
    WorkerError,
    WorkerFault,
    WorkerSupervisor,
    WorkerTimeoutError,
)
from repro.faults.resilient import ResilientProcessGroup
from repro.faults.supervisor import SIGKILL_EXITCODE
from repro.models.convnets import make_mlp, make_small_vgg
from repro.optim.aggregators import make_aggregator
from repro.optim.sgd import SGD
from repro.perf import shm
from repro.perf.arena import GradientArena
from repro.perf.procpool import ProcessWorkerPool, WorkerStepTask
from repro.perf.replicas import batch_norms
from repro.train.datasets import ArrayDataset, make_cifar_like
from repro.train.trainer import DataParallelTrainer
from repro.utils.seeding import rank_rng

pytestmark = pytest.mark.faults

START_METHODS = sorted(
    set(multiprocessing.get_all_start_methods()) & {"fork", "spawn"}
)


def make_task(seed=0, n=128, features=6, classes=3):
    rng = np.random.default_rng(seed)
    w = rng.normal(size=(features, classes))
    x = rng.normal(size=(n, features))
    y = (x @ w).argmax(axis=1)
    split = int(n * 0.8)
    return (ArrayDataset(x[:split], y[:split]),
            ArrayDataset(x[split:], y[split:]))


def make_trainer(
    workers="process",
    plan=None,
    policy=None,
    resilient=None,
    world=2,
    method="ssgd",
    seed=11,
    step_timeout=30.0,
):
    train_data, test_data = make_task(seed)
    model = make_mlp(6, 10, 3, rng=np.random.default_rng(5))
    if resilient if resilient is not None else policy is not None:
        group = ResilientProcessGroup(
            world, injector=FaultInjector(plan or FaultPlan(seed=seed))
        )
    else:
        group = ProcessGroup(world)
    trainer = DataParallelTrainer(
        model,
        SGD(model, lr=0.05, momentum=0.9),
        make_aggregator(method, group),
        train_data,
        test_data,
        batch_size_per_worker=4,
        seed=seed,
        workers=workers,
        supervision=policy,
        worker_step_timeout=step_timeout,
    )
    return trainer, model


def run_steps(trainer, model, steps):
    with trainer:
        losses = [trainer.train_step() for _ in range(steps)]
    weights = np.concatenate(
        [param.data.ravel() for _, param in model.named_parameters()]
    )
    return losses, weights


# ----------------------------------------------------------------------
# The typed hierarchy and the policy/supervisor objects
# ----------------------------------------------------------------------
class TestTypedErrors:
    def test_dead_error_carries_rank_exitcode_phase(self):
        error = WorkerDeadError(3, exitcode=-9, phase="spawn")
        assert isinstance(error, WorkerError)
        assert isinstance(error, RuntimeError)  # legacy handlers keep working
        assert error.rank == 3 and error.exitcode == -9
        assert error.phase == "spawn"
        assert "rank 3" in str(error) and "spawn" in str(error)

    def test_timeout_error_carries_rank_and_budget(self):
        error = WorkerTimeoutError(1, timeout_s=2.5)
        assert isinstance(error, WorkerError)
        assert error.rank == 1 and error.timeout_s == 2.5
        assert "2.5" in str(error)

    @pytest.mark.parametrize("kwargs", [
        {"on_failure": "retry"},
        {"max_restarts": -1},
        {"respawn_delay_steps": 0},
    ])
    def test_policy_validation(self, kwargs):
        with pytest.raises(ValueError):
            SupervisionPolicy(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"kind": "explode", "rank": 0, "step": 0},
        {"kind": "crash", "rank": -1, "step": 0},
        {"kind": "crash", "rank": 0, "step": -1},
        {"kind": "slow", "rank": 0, "step": 0, "delay_s": -0.1},
    ])
    def test_worker_fault_validation(self, kwargs):
        with pytest.raises(ValueError):
            WorkerFault(**kwargs)

    def test_plan_rejects_duplicate_fault_cells(self):
        with pytest.raises(ValueError, match="at most one"):
            FaultPlan(seed=0, worker_faults=(
                WorkerFault("crash", rank=1, step=2),
                WorkerFault("hang", rank=1, step=2),
            ))

    def test_plan_lookup(self):
        fault = WorkerFault("hang", rank=1, step=2)
        plan = FaultPlan(seed=0, worker_faults=(fault,))
        assert plan.worker_fault_at(1, 2) is fault
        assert plan.worker_fault_at(1, 3) is None
        assert plan.worker_fault_at(0, 2) is None

    def test_supervisor_classifies_and_budgets(self):
        supervisor = WorkerSupervisor(SupervisionPolicy(max_restarts=1))
        dead = WorkerDeadError(0, exitcode=-9)
        hung = WorkerTimeoutError(1, timeout_s=1.0)
        supervisor.record_failure(dead)
        supervisor.record_failure(hung)
        assert supervisor.stats.worker_crashes == 1
        assert supervisor.stats.worker_timeouts == 1
        supervisor.consume_restart(dead)
        assert supervisor.stats.worker_restarts == 1
        with pytest.raises(WorkerDeadError):
            supervisor.consume_restart(dead)  # budget exhausted: re-raises

    def test_simulated_failure_mapping(self):
        crash = WorkerSupervisor.simulated_failure(
            WorkerFault("crash", rank=2, step=0)
        )
        assert isinstance(crash, WorkerDeadError)
        assert crash.rank == 2 and crash.exitcode == SIGKILL_EXITCODE
        hang = WorkerSupervisor.simulated_failure(
            WorkerFault("hang", rank=1, step=0)
        )
        assert isinstance(hang, WorkerTimeoutError)
        # A slow child under the timeout completes normally: no failure.
        assert WorkerSupervisor.simulated_failure(
            WorkerFault("slow", rank=0, step=0)
        ) is None


# ----------------------------------------------------------------------
# Restart rung: bit-identical to fault-free, every fault kind
# ----------------------------------------------------------------------
class TestRestartPolicy:
    @pytest.mark.parametrize(
        "kind, step, steps",
        [("crash", 1, 3), ("slow", 1, 3), ("crash", 4, 6)],
        # The late crash respawns a child into a stream its predecessor
        # advanced four times: the task must carry it there.
        ids=["crash", "slow", "late-crash"],
    )
    def test_bit_identical_to_fault_free(self, kind, step, steps):
        plan = FaultPlan(seed=11, worker_faults=(
            WorkerFault(kind, rank=1, step=step, delay_s=0.01),
        ))
        policy = SupervisionPolicy(on_failure="restart")
        clean = run_steps(*make_trainer(), steps=steps)
        faulty_trainer, faulty_model = make_trainer(plan=plan, policy=policy)
        faulty = run_steps(faulty_trainer, faulty_model, steps=steps)
        seq = run_steps(
            *make_trainer(workers="seq", plan=plan, policy=policy),
            steps=steps,
        )
        assert faulty[0] == clean[0] == seq[0]
        assert np.array_equal(faulty[1], clean[1])
        assert np.array_equal(faulty[1], seq[1])
        stats = faulty_trainer.supervisor.stats
        if kind == "crash":
            assert stats.worker_crashes == 1
            assert stats.worker_restarts == 1
        else:  # slow: completes under the timeout, no supervision event
            assert stats.worker_crashes == 0
            assert stats.worker_restarts == 0

    def test_hang_detected_and_recovered(self):
        plan = FaultPlan(seed=11, worker_faults=(
            WorkerFault("hang", rank=0, step=1),
        ))
        policy = SupervisionPolicy(on_failure="restart")
        clean = run_steps(*make_trainer(), steps=3)
        trainer, model = make_trainer(
            plan=plan, policy=policy, step_timeout=3.0
        )
        faulty = run_steps(trainer, model, steps=3)
        assert faulty[0] == clean[0]
        assert np.array_equal(faulty[1], clean[1])
        assert trainer.supervisor.stats.worker_timeouts == 1
        assert trainer.supervisor.stats.worker_restarts == 1

    @pytest.mark.parametrize("workers", ["seq", "process"])
    def test_restart_keeps_batchnorm_bits_for_a_non_final_rank(self, workers):
        """Rank 0 of three crashes; its retried pass runs after the other
        two, and the slot-order replay still puts its batch statistics
        first: weights and running buffers equal the fault-free run's."""
        plan = FaultPlan(seed=11, worker_faults=(
            WorkerFault("crash", rank=0, step=1),
        ))

        def run(workers, policy=None):
            train_data, test_data = make_cifar_like(
                num_train=48, num_test=8, seed=3
            )
            model = make_small_vgg(base_width=2, rng=np.random.default_rng(5))
            group = (
                ProcessGroup(3) if policy is None
                else ResilientProcessGroup(3, injector=FaultInjector(plan))
            )
            trainer = DataParallelTrainer(
                model,
                SGD(model, lr=0.05, momentum=0.9),
                make_aggregator("ssgd", group),
                train_data,
                test_data,
                batch_size_per_worker=4,
                seed=11,
                workers=workers,
                supervision=policy,
                worker_step_timeout=30.0,
            )
            losses, _ = run_steps(trainer, model, steps=3)
            buffers = [
                np.concatenate([bn.running_mean, bn.running_var])
                for bn in batch_norms(model)
            ]
            assert buffers
            return (losses, model.state_vector(), np.concatenate(buffers),
                    trainer.supervisor)

        clean = run("seq")
        faulty = run(workers, SupervisionPolicy(on_failure="restart"))
        assert faulty[0] == clean[0]
        assert faulty[1].tobytes() == clean[1].tobytes()
        assert faulty[2].tobytes() == clean[2].tobytes()
        assert faulty[3].stats.worker_restarts == 1

    @pytest.mark.parametrize("workers", ["process", "seq"])
    def test_exhausted_budget_reraises(self, workers):
        plan = FaultPlan(seed=11, worker_faults=(
            WorkerFault("crash", rank=0, step=0),
        ))
        policy = SupervisionPolicy(on_failure="restart", max_restarts=0)
        trainer, _ = make_trainer(workers=workers, plan=plan, policy=policy)
        with trainer:
            with pytest.raises(WorkerDeadError):
                trainer.train_step()


# ----------------------------------------------------------------------
# Eject rung: degraded step, boundary ejection, scheduled rejoin
# ----------------------------------------------------------------------
class TestEjectPolicy:
    @pytest.mark.parametrize("kind,step_timeout", [
        ("crash", 30.0), ("hang", 3.0),
    ])
    def test_process_matches_sequential_twin(self, kind, step_timeout):
        plan = FaultPlan(seed=11, worker_faults=(
            WorkerFault(kind, rank=1, step=1),
        ))
        policy = SupervisionPolicy(on_failure="eject", respawn_delay_steps=2)
        results = {}
        for workers in ("process", "seq"):
            trainer, model = make_trainer(
                workers=workers, plan=plan, policy=policy,
                step_timeout=step_timeout,
            )
            results[workers] = (
                run_steps(trainer, model, steps=5), trainer
            )
        (p_run, p_trainer), (s_run, s_trainer) = (
            results["process"], results["seq"]
        )
        assert p_run[0] == s_run[0]
        assert np.array_equal(p_run[1], s_run[1])
        for trainer in (p_trainer, s_trainer):
            group = trainer.aggregator.group
            assert group.ranks_of("eject") == [1]
            assert group.ranks_of("rejoin") == [1]
            assert group.live_ranks == [0, 1]

    def test_no_rejoin_when_delay_is_none(self):
        plan = FaultPlan(seed=11, worker_faults=(
            WorkerFault("crash", rank=2, step=1),
        ))
        policy = SupervisionPolicy(
            on_failure="eject", respawn_delay_steps=None
        )
        trainer, model = make_trainer(plan=plan, policy=policy, world=3)
        run_steps(trainer, model, steps=4)
        group = trainer.aggregator.group
        assert group.ranks_of("eject") == [2]
        assert group.ranks_of("rejoin") == []
        assert group.live_ranks == [0, 1]

    def test_eject_requires_membership(self):
        """Only a resilient group can commit the ejection and the rejoin."""
        with pytest.raises(ValueError, match="requires a ResilientProcessGroup"):
            make_trainer(
                policy=SupervisionPolicy(on_failure="eject"),
                resilient=False,
            )


# ----------------------------------------------------------------------
# Constructor validation and unsupervised propagation
# ----------------------------------------------------------------------
class TestSupervisionWiring:
    def test_requires_seq_or_process_workers(self):
        """The deleted thread backend is a plain unknown ``workers`` value."""
        with pytest.raises(ValueError, match="'seq' or 'process', got 'thread'"):
            make_trainer(workers="thread", policy=SupervisionPolicy())

    def test_hang_plan_requires_step_timeout(self):
        plan = FaultPlan(seed=0, worker_faults=(
            WorkerFault("hang", rank=0, step=0),
        ))
        with pytest.raises(ValueError, match="worker_step_timeout"):
            make_trainer(plan=plan, policy=SupervisionPolicy(),
                         step_timeout=None)

    def test_unsupervised_child_death_raises_typed_error(self):
        trainer, _ = make_trainer(step_timeout=10.0)
        with trainer:
            trainer.train_step()
            victim = trainer._workers._children[1][1]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(5.0)
            with pytest.raises(WorkerDeadError) as excinfo:
                trainer.train_step()
            assert excinfo.value.rank == 1
            # SIGKILL shows up as a negative exitcode when reaped in time.
            assert excinfo.value.exitcode in (None, -signal.SIGKILL)


# ----------------------------------------------------------------------
# Pool lifecycle: crash-safe, idempotent, typed (satellites a/b/d)
# ----------------------------------------------------------------------
class TestPoolCrashSafety:
    def _make_pool(self, world=1, **kwargs):
        train_data, _ = make_task(0)
        model = make_mlp(6, 10, 3, rng=np.random.default_rng(0))
        arena = GradientArena(model, world, backing="shared")
        pool = ProcessWorkerPool(
            model, arena, train_data, batch_size=4, **kwargs
        )
        return model, arena, pool

    def _task(self, arena, rank=0, slot=None, fault=None):
        slot = rank if slot is None else slot
        return WorkerStepTask(
            rank=rank, slot=slot, shard_index=rank, shard_world=arena.world_size,
            rng=rank_rng(0, rank), fault=fault,
        )

    def test_run_step_raises_typed_dead_error(self):
        model, arena, pool = self._make_pool(step_timeout=10.0)
        try:
            pool.ensure_ranks([0])
            pool.broadcast_weights(model)
            os.kill(pool._children[0][1].pid, signal.SIGKILL)
            pool._children[0][1].join(5.0)
            with pytest.raises(WorkerDeadError) as excinfo:
                pool.run_step([self._task(arena)])
            assert excinfo.value.rank == 0
        finally:
            pool.close()
            arena.close()

    def test_close_after_child_sigkill_reclaims_everything(self):
        model, arena, pool = self._make_pool(world=2)
        pool.ensure_ranks([0, 1])
        os.kill(pool._children[0][1].pid, signal.SIGKILL)
        pool.close()   # must not raise despite the broken pipe + zombie
        pool.close()   # and double-close stays a no-op
        arena.close()
        assert not shm.live_segment_names()

    def test_close_during_teardown_with_all_children_dead(self):
        model, arena, pool = self._make_pool(world=2)
        pool.ensure_ranks([0, 1])
        for rank in (0, 1):
            os.kill(pool._children[rank][1].pid, signal.SIGKILL)
        pool.close()
        arena.close()
        assert not shm.live_segment_names()

    def test_partially_constructed_pool_does_not_leak(self, monkeypatch):
        train_data, _ = make_task(0)
        model = make_mlp(6, 10, 3, rng=np.random.default_rng(0))
        arena = GradientArena(model, 1, backing="shared")
        before = shm.live_segment_names()
        monkeypatch.setattr(
            "repro.perf.procpool._scrubbed_template",
            lambda model: (_ for _ in ()).throw(RuntimeError("boom")),
        )
        with pytest.raises(RuntimeError, match="boom"):
            ProcessWorkerPool(model, arena, train_data, batch_size=4)
        # The constructor-owned broadcast segment was released on the way
        # out; only the arena's own segment may remain.
        assert shm.live_segment_names() == before
        arena.close()

    def test_discard_unknown_rank_is_noop(self):
        model, arena, pool = self._make_pool()
        try:
            pool.discard(7)  # never spawned: nothing to do, no error
        finally:
            pool.close()
            arena.close()

    def test_discard_kills_hung_child(self):
        model, arena, pool = self._make_pool(step_timeout=2.0)
        try:
            pool.ensure_ranks([0])
            pool.broadcast_weights(model)
            hang = WorkerFault("hang", rank=0, step=0)
            with pytest.raises(WorkerTimeoutError):
                pool.run_step([self._task(arena, fault=hang)])
            process = pool._children[0][1]
            assert process.is_alive()  # hung, not dead
            pool.discard(0)
            assert not process.is_alive()
            assert pool.worker_ranks == []
        finally:
            pool.close()
            arena.close()

    @pytest.mark.parametrize("start_method", START_METHODS)
    def test_spawn_crash_during_admission(self, start_method):
        model, arena, pool = self._make_pool(
            step_timeout=15.0, start_method=start_method
        )
        try:
            pool.inject_spawn_crash(0)
            with pytest.raises(WorkerDeadError) as excinfo:
                pool.ensure_ranks([0])
            assert excinfo.value.phase == "spawn"
            assert pool.worker_ranks == []  # no half-initialized child kept
            # The crash was one-shot: admission succeeds on retry and the
            # child serves steps normally.
            pool.ensure_ranks([0])
            pool.broadcast_weights(model)
            (result,) = pool.run_step([self._task(arena)])
            assert np.isfinite(result.loss)
        finally:
            pool.close()
            arena.close()
        assert not shm.live_segment_names()

    @pytest.mark.parametrize("start_method", START_METHODS)
    def test_supervised_trainer_rides_out_admission_crash(
        self, start_method, monkeypatch
    ):
        monkeypatch.setattr(
            multiprocessing, "get_all_start_methods", lambda: [start_method]
        )
        policy = SupervisionPolicy(on_failure="restart")
        clean = run_steps(*make_trainer(), steps=2)
        trainer, model = make_trainer(policy=policy)
        with trainer:
            assert trainer._workers.start_method == start_method
            trainer._workers.inject_spawn_crash(1)
            losses = [trainer.train_step() for _ in range(2)]
        weights = np.concatenate(
            [param.data.ravel() for _, param in model.named_parameters()]
        )
        assert losses == clean[0]
        assert np.array_equal(weights, clean[1])
        assert trainer.supervisor.stats.worker_crashes == 1
        assert trainer.supervisor.stats.worker_restarts == 1
