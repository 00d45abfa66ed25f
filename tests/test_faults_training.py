"""End-to-end resilient training: the ISSUE acceptance scenarios.

The load-bearing assertions:

- a fault plan whose every fault is recovered within the retry budget is
  *invisible to the numerics* — the trajectory matches the fault-free run
  bit-exactly;
- the same plan replayed twice is bit-identical;
- a permanent rank loss shrinks the world to the survivors and training
  continues with rescaled averaging;
- the trainer ladder (skip-step, uncompressed fallback, rollback) fires in
  order and abords loudly past ``max_rollbacks``.
"""

import numpy as np
import pytest

from repro.faults import (
    FaultInjector,
    FaultPlan,
    PermanentFailure,
    ResilientProcessGroup,
    TransientFailure,
)
from repro.faults.resilient import BackoffPolicy
from repro.models.convnets import make_mlp
from repro.optim import SGD, make_aggregator
from repro.optim.aggregators import AllReduceAggregator
from repro.train import DataParallelTrainer, ResilienceConfig
from repro.train.datasets import ArrayDataset

pytestmark = pytest.mark.faults


def make_data(seed=0, samples=64, features=6, classes=3):
    rng = np.random.default_rng(seed)
    inputs = rng.normal(size=(samples, features))
    labels = rng.integers(0, classes, size=samples)
    return ArrayDataset(inputs, labels), ArrayDataset(
        inputs[:16].copy(), labels[:16].copy()
    )


def make_trainer(world_size=2, method="acpsgd", injector=None, policy=None,
                 resilience=None, lr=0.05):
    train_data, test_data = make_data()
    model = make_mlp(6, 10, 3, rng=np.random.default_rng(5))
    group = ResilientProcessGroup(world_size, injector=injector, policy=policy)
    kwargs = {"rank": 2} if method in ("acpsgd", "powersgd") else {}
    aggregator = make_aggregator(method, group, **kwargs)
    trainer = DataParallelTrainer(
        model, SGD(model, lr=lr, momentum=0.9), aggregator,
        train_data, test_data, batch_size_per_worker=8, seed=11,
        resilience=resilience,
    )
    return trainer, group, model


RECOVERABLE_PLAN = FaultPlan(
    seed=1,
    corrupt_rate=0.05,
    corrupt_mode="nan",
    transient=(TransientFailure(rank=1, call_index=5, attempts=2),),
)


class TestRecoveredFaultsAreInvisible:
    def test_trajectory_matches_fault_free_control_bit_exactly(self):
        injector = FaultInjector(RECOVERABLE_PLAN)
        faulty, faulty_group, faulty_model = make_trainer(injector=injector)
        faulty_history = faulty.run(1, 10, method_label="acpsgd")

        clean, _, clean_model = make_trainer(injector=None)
        clean_history = clean.run(1, 10, method_label="acpsgd")

        # The scheduled transient really fired and really burned retries...
        assert len(injector.events_of_kind("down")) == 2
        assert faulty_group.stats.retries >= 2
        assert faulty_group.stats.degraded_calls == 0
        # ...yet every retried collective reran on the original buffers, so
        # losses and final weights are bit-identical to the fault-free run.
        assert faulty_history.train_loss == clean_history.train_loss
        assert np.array_equal(
            faulty_model.state_vector(), clean_model.state_vector()
        )

    def test_same_plan_twice_is_bit_identical(self):
        weights = []
        for _ in range(2):
            trainer, _, model = make_trainer(
                injector=FaultInjector(RECOVERABLE_PLAN),
                resilience=ResilienceConfig(),
            )
            trainer.run(1, 8, method_label="acpsgd")
            weights.append(model.state_vector())
        assert np.array_equal(weights[0], weights[1])


class TestPermanentLossDuringTraining:
    def test_world_shrinks_and_training_continues(self):
        plan = FaultPlan(
            seed=2, permanent=(PermanentFailure(rank=2, call_index=2),)
        )
        trainer, group, _ = make_trainer(
            world_size=3, method="ssgd",
            injector=FaultInjector(plan),
            policy=BackoffPolicy(max_retries=1),
            resilience=ResilienceConfig(checkpoint_interval=0),
        )
        history = trainer.run(1, 6, method_label="ssgd")
        assert group.live_ranks == [0, 1]
        assert group.world_size == 2
        assert group.ranks_of("eject") == [2]
        assert group.stats.degraded_calls >= 1
        assert all(np.isfinite(loss) for loss in history.train_loss)


def after_every_pass(trainer, change):
    """Call ``change(task, result)`` on every worker result from now on;
    ``del trainer._workers.run_step`` stops it."""
    run_step = trainer._workers.run_step

    def patched(tasks, capture_errors=False):
        results = run_step(tasks, capture_errors)
        for task, result in zip(tasks, results):
            change(task, result)
        return results

    trainer._workers.run_step = patched


class TestTrainerLadder:
    @staticmethod
    def _poison_gradients(trainer):
        """Make every subsequent worker gradient carry a NaN."""

        def poison(task, result):
            trainer._arena.slab(task.slot)[0] = np.nan

        after_every_pass(trainer, poison)

    @staticmethod
    def _inflate_losses(trainer, factor=1e9):
        """Keep gradients sane but report an exploding loss."""

        def inflate(task, result):
            result.loss *= factor

        after_every_pass(trainer, inflate)

    def test_nan_step_is_skipped_then_fallback_runs_uncompressed(self):
        cfg = ResilienceConfig(fallback_steps=2, checkpoint_interval=0)
        trainer, _, model = make_trainer(resilience=cfg)
        for _ in range(2):
            trainer.train_step()
        before = model.state_vector().copy()

        self._poison_gradients(trainer)
        reported = trainer.train_step()
        del trainer._workers.run_step  # restore the clean method

        log = trainer.resilience_log
        assert log.skipped_steps == 1
        assert log.residual_resets == 1
        assert log.fallback_activations == 1
        assert any("skipped" in note for note in log.notes)
        # No update was applied, and the reported loss stayed finite.
        assert np.array_equal(model.state_vector(), before)
        assert np.isfinite(reported)

        # The next steps aggregate uncompressed while compression re-warms.
        trainer.train_step()
        assert log.fallback_steps_run == 1
        assert isinstance(trainer._fallback_aggregator, AllReduceAggregator)
        trainer.train_step()
        trainer.train_step()
        assert log.fallback_steps_run == 2  # window closed after 2 steps

    def test_nan_aggregated_gradient_also_skips(self):
        # The finite check guards the *aggregated* gradient too; disable the
        # per-worker poison detection path by corrupting after aggregation:
        # the reduced factor the update would be decoded from.
        cfg = ResilienceConfig(fallback_steps=0, checkpoint_interval=0)
        trainer, _, model = make_trainer(resilience=cfg)
        original = trainer.aggregator.finish_buckets

        def bad_finish_buckets():
            aggregated = original()
            p, _ = next(iter(aggregated.factors.values()))
            p.reshape(-1)[0] = np.inf
            return aggregated

        trainer.aggregator.finish_buckets = bad_finish_buckets
        before = model.state_vector().copy()
        trainer.train_step()
        assert trainer.resilience_log.skipped_steps == 1
        assert np.array_equal(model.state_vector(), before)

    def test_divergence_rolls_back_to_last_checkpoint(self, tmp_path):
        cfg = ResilienceConfig(
            checkpoint_interval=1, checkpoint_dir=str(tmp_path),
            divergence_patience=1, fallback_steps=0, max_rollbacks=3,
        )
        trainer, _, model = make_trainer(resilience=cfg)
        for _ in range(3):
            trainer.train_step()
        checkpointed = model.state_vector().copy()

        self._inflate_losses(trainer)
        trainer.train_step()
        log = trainer.resilience_log
        assert log.divergence_alarms == 1
        assert log.rollbacks == 1
        assert any("rolled back" in note for note in log.notes)
        # The poisoned update was applied, then undone by the restore.
        assert np.array_equal(model.state_vector(), checkpointed)

    def test_exceeding_max_rollbacks_aborts_loudly(self, tmp_path):
        cfg = ResilienceConfig(
            checkpoint_interval=1, checkpoint_dir=str(tmp_path),
            divergence_patience=1, fallback_steps=0, max_rollbacks=0,
        )
        trainer, _, _ = make_trainer(resilience=cfg)
        for _ in range(2):
            trainer.train_step()
        self._inflate_losses(trainer)
        with pytest.raises(RuntimeError, match="max_rollbacks"):
            trainer.train_step()

    def test_rollback_before_any_checkpoint_is_survivable(self):
        cfg = ResilienceConfig(
            checkpoint_interval=0, divergence_patience=1, fallback_steps=0,
        )
        trainer, _, _ = make_trainer(resilience=cfg)
        trainer.train_step()
        self._inflate_losses(trainer)
        trainer.train_step()  # alarm fires; nothing to restore; no crash
        log = trainer.resilience_log
        assert log.divergence_alarms == 1
        assert log.rollbacks == 0
        assert any("before any checkpoint" in note for note in log.notes)

    def test_log_render_mentions_events(self):
        cfg = ResilienceConfig(fallback_steps=1, checkpoint_interval=0)
        trainer, _, _ = make_trainer(resilience=cfg)
        trainer.train_step()
        self._poison_gradients(trainer)
        trainer.train_step()
        rendered = trainer.resilience_log.render()
        assert "skipped steps         1" in rendered
        assert "events:" in rendered


def all_residuals_empty(trainer):
    """Every live slot's carried (error-feedback) views hold ``-0.0``."""
    arena = trainer._arena
    assert arena.carried
    return all(
        view.tobytes() == np.full(view.shape, -0.0, view.dtype).tobytes()
        for slot in range(len(trainer.aggregator.roster))
        for name, view in arena.grads(slot).items()
        if name in arena.carried
    )


def _overflow_after_the_local_check(trainer, method):
    """Make the step's aggregate non-finite although every local gradient
    is finite: a finite payload whose decode overflows (Power-SGD, ACP-SGD:
    the factors; Top-k, DGC: ``world`` values of 0.6 times the largest float
    on one coordinate), or
    a NaN Sign-SGD scale planted in a slab after the local check."""
    aggregator = trainer.aggregator
    if method in ("acpsgd", "powersgd"):
        # The aggregate keeps the pair slot 0's state adopts.
        lead = aggregator.state_for(aggregator.roster[0])
        adopt = lead.adopt

        def huge_factors(name, factor, half):
            p, q = adopt(name, factor, half)
            # Finite factors whose product overflows, in their precision
            # (1e246 in float64, 1.7e30 in float32).
            huge = float(np.finfo(p.dtype).max) ** 0.8
            return p * huge, q * huge

        lead.adopt = huge_factors
    else:
        finish_step = trainer.reducer.finish_step

        def planted(aggregator=None):
            for slot in range(len(trainer.aggregator.roster)):
                slab = trainer._arena.slab(slot)
                if method in ("topk", "dgc"):
                    slab[0] = 0.6 * np.finfo(slab.dtype).max
                elif slot == 0:
                    slab[0] = np.nan
            return finish_step(aggregator)

        trainer.reducer.finish_step = planted


class TestPayloadFiniteCheck:
    """The finite check judges the reduced payload the update is decoded
    from; a payload whose decode could overflow is skipped like a
    non-finite one, leaving weights and velocities as they were and the
    residuals emptied."""

    @pytest.mark.parametrize(
        "method", ["acpsgd", "powersgd", "topk", "dgc", "signsgd"]
    )
    def test_overflowing_decode_skips_the_step(self, method):
        cfg = ResilienceConfig(fallback_steps=0, checkpoint_interval=0)
        trainer, _, model = make_trainer(method=method, resilience=cfg)
        for _ in range(2):
            trainer.train_step()
        weights = model.state_vector().copy()
        velocity = {
            name: v.copy() for name, v in trainer.optimizer._velocity.items()
        }
        _overflow_after_the_local_check(trainer, method)
        trainer.train_step()
        log = trainer.resilience_log
        assert log.skipped_steps == 1
        assert [note for note in log.notes if "skipped" in note] == [
            "step 3: skipped (non-finite aggregated gradient)"
        ]
        assert model.state_vector().tobytes() == weights.tobytes()
        for name, v in velocity.items():
            assert trainer.optimizer._velocity[name].tobytes() == v.tobytes()
        assert all_residuals_empty(trainer)

    @pytest.mark.parametrize("method", ["acpsgd", "powersgd"])
    def test_a_poisoned_carried_factor_is_dropped_with_the_step(self, method):
        """Every rank adopts a NaN factor as the step's last half, and an
        adopted factor is carried into the next step. The payload check
        skips the step and the skip resets the states, so the next step
        trains: its loss is finite and every live rank carries the same
        finite factors (orthogonalizing the NaN would raise)."""
        cfg = ResilienceConfig(fallback_steps=0, checkpoint_interval=0)
        trainer, _, model = make_trainer(method=method, resilience=cfg)
        for _ in range(2):
            trainer.train_step()
        aggregator = trainer.aggregator
        states = [aggregator.state_for(rank) for rank in aggregator.roster]
        for state in states:

            def poisoned(name, factor, half, adopt=state.adopt, state=state):
                if half % state.halves_per_step == 0:
                    factor = np.full_like(factor, np.nan)
                return adopt(name, factor, half)

            state.adopt = poisoned
        trainer.train_step()
        log = trainer.resilience_log
        assert [note for note in log.notes if "skipped" in note] == [
            "step 3: skipped (non-finite aggregated gradient)"
        ]
        for state in states:
            del state.adopt
        assert np.isfinite(trainer.train_step())
        assert log.skipped_steps == 1
        assert np.isfinite(model.state_vector()).all()
        for factors in ("_p", "_q"):
            lead = getattr(states[0], factors)
            assert lead  # this step's pair, one per compressed tensor
            for state in states[1:]:
                theirs = getattr(state, factors)
                assert theirs.keys() == lead.keys()
                for name, value in lead.items():
                    assert np.isfinite(value).all()
                    assert theirs[name].tobytes() == value.tobytes()


class TestErrorFeedbackSlotsThroughTheLadder:
    """An error-feedback method keeps each rank's residual in its arena
    slab; every rung of the ladder must leave those slots consistent."""

    def test_skip_refills_the_slots_with_negative_zero(self):
        cfg = ResilienceConfig(fallback_steps=0, checkpoint_interval=0)
        trainer, _, _ = make_trainer(method="topk", resilience=cfg)
        for _ in range(2):
            trainer.train_step()
        assert not all_residuals_empty(trainer)
        TestTrainerLadder._poison_gradients(trainer)
        trainer.train_step()
        assert trainer.resilience_log.skipped_steps == 1
        assert all_residuals_empty(trainer)

    def test_rollback_refills_the_slots_with_negative_zero(self, tmp_path):
        cfg = ResilienceConfig(
            checkpoint_interval=1, checkpoint_dir=str(tmp_path),
            divergence_patience=1, fallback_steps=0, max_rollbacks=3,
        )
        trainer, _, _ = make_trainer(method="acpsgd", resilience=cfg)
        for _ in range(3):
            trainer.train_step()
        assert not all_residuals_empty(trainer)
        TestTrainerLadder._inflate_losses(trainer)
        trainer.train_step()
        assert trainer.resilience_log.rollbacks == 1
        assert all_residuals_empty(trainer)

    def test_fallback_reduces_the_gradient_and_leaves_the_slots_empty(self):
        """After the skip the residual is ``-0.0``, so the uncompressed
        window reduces ``E + G`` = ``G`` bit for bit — the gradient a
        slot-free copy of the model computes from the same batch — and
        empties the slots again once it has."""
        from copy import deepcopy

        from repro.perf.replicas import detached_copy, worker_pass

        cfg = ResilienceConfig(fallback_steps=1, checkpoint_interval=0)
        trainer, _, model = make_trainer(method="topk", resilience=cfg)
        trainer.train_step()
        TestTrainerLadder._poison_gradients(trainer)
        trainer.train_step()  # skipped: the window opens
        del trainer._workers.run_step
        assert all_residuals_empty(trainer)
        twin, want = detached_copy(model), []
        for rank, shard in trainer.train_shards.items():
            rng = deepcopy(trainer._rngs[rank])
            worker_pass(twin, trainer.loss_fn, shard, rng, trainer.batch_size)
            want.append({n: p.grad.copy() for n, p in twin.named_parameters()})
        apply = trainer._resilient_apply

        def check(mean_loss, per_worker):
            for grads, expected in zip(per_worker, want):
                for name in expected:
                    assert grads[name].tobytes() == expected[name].tobytes()
            return apply(mean_loss, per_worker)

        trainer._resilient_apply = check
        trainer.train_step()
        del trainer._resilient_apply
        assert trainer.resilience_log.fallback_steps_run == 1
        assert all_residuals_empty(trainer)
        trainer.train_step()  # compressed again, from empty residuals
        assert not all_residuals_empty(trainer)

    def test_without_error_feedback_the_slots_stay_stale_marked(self):
        train_data, test_data = make_data()
        model = make_mlp(6, 10, 3, rng=np.random.default_rng(5))
        aggregator = make_aggregator(
            "topk", ResilientProcessGroup(2), use_error_feedback=False
        )
        trainer = DataParallelTrainer(
            model, SGD(model, lr=0.05), aggregator, train_data, test_data,
            batch_size_per_worker=8, seed=11,
        )
        trainer.train_step()
        assert trainer._arena.carried == frozenset()
        model.zero_grad()
        assert all(param.grad is None for param in model.parameters())
