"""Datasets, history, and the data-parallel trainer."""

import numpy as np
import pytest

from repro.comm.process_group import ProcessGroup
from repro.models.convnets import make_mlp
from repro.nn.loss import CrossEntropyLoss
from repro.optim.aggregators import make_aggregator
from repro.optim.sgd import SGD
from repro.perf.procpool import WorkerStepTask
from repro.train.datasets import SyntheticImageDataset, make_cifar_like
from repro.train.history import TrainingHistory
from repro.train.trainer import DataParallelTrainer


class TestDatasets:
    def test_shapes_and_determinism(self):
        train1, test1 = make_cifar_like(num_train=100, num_test=20, seed=5)
        train2, _ = make_cifar_like(num_train=100, num_test=20, seed=5)
        assert train1.images.shape == (100, 3, 16, 16)
        assert len(test1) == 20
        np.testing.assert_array_equal(train1.images, train2.images)

    def test_different_seeds_differ(self):
        a, _ = make_cifar_like(num_train=50, seed=1)
        b, _ = make_cifar_like(num_train=50, seed=2)
        assert not np.allclose(a.images, b.images)

    def test_shards_partition_dataset(self):
        train, _ = make_cifar_like(num_train=101, num_test=10)
        shards = [train.shard(r, 4) for r in range(4)]
        assert sum(len(s) for s in shards) == 101

    def test_shard_validation(self):
        train, _ = make_cifar_like(num_train=10, num_test=2)
        with pytest.raises(ValueError, match="rank"):
            train.shard(4, 4)

    def test_batch_sampling(self, rng):
        train, _ = make_cifar_like(num_train=50, num_test=10)
        images, labels = train.batch(rng, 8)
        assert images.shape == (8, 3, 16, 16)
        assert labels.shape == (8,)

    def test_classes_are_separable(self):
        """Mean template distance must far exceed noise — the dataset is
        learnable by design."""
        def ratio(jitter):
            train, _ = make_cifar_like(
                num_train=400, num_test=10, noise=0.3, jitter=jitter, seed=0
            )
            classes = [c for c in range(10) if (train.labels == c).any()]
            means = np.stack([
                train.images[train.labels == c].mean(axis=0) for c in classes
            ])
            centre = means.mean(axis=0)

            def norms(arr):
                return np.linalg.norm(arr.reshape(arr.shape[0], -1), axis=1)

            between = norms(means - centre).mean()
            within = np.mean([
                norms(train.images[train.labels == c] - means[i]).mean()
                for i, c in enumerate(classes)
            ])
            return between / within

        # Without spatial jitter the class templates dominate the noise;
        # jitter smears the raw class means but keeps structure.
        assert ratio(jitter=0) > 0.5
        assert ratio(jitter=2) > 0.15

    def test_dataset_validation(self):
        with pytest.raises(ValueError, match="NCHW"):
            SyntheticImageDataset(np.zeros((4, 3, 8)), np.zeros(4, dtype=int))
        with pytest.raises(ValueError, match="labels"):
            SyntheticImageDataset(np.zeros((4, 3, 8, 8)), np.zeros(5, dtype=int))


class TestHistory:
    def test_record_and_properties(self):
        hist = TrainingHistory("ssgd")
        hist.record(0, 2.0, 0.3, 0.1)
        hist.record(1, 1.0, 0.6, 0.1)
        assert hist.final_accuracy == 0.6
        assert hist.best_accuracy == 0.6
        assert "epoch   1" in hist.render()

    def test_empty_history_raises(self):
        with pytest.raises(ValueError, match="no epochs"):
            TrainingHistory("x").final_accuracy


class _FlatDataset:
    """Adapter: flat-vector Gaussian-mixture dataset for MLP trainer tests.

    Class centers come from a fixed seed so train and test share the same
    distribution; only the samples differ.
    """

    @staticmethod
    def build(num, dim, classes, seed):
        centers = np.random.default_rng(999).normal(size=(classes, dim)) * 3
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, classes, size=num)
        images = centers[labels] + rng.normal(size=(num, dim))
        # Store as NCHW with H=W=1 so SyntheticImageDataset accepts it.
        return SyntheticImageDataset(
            images.reshape(num, dim, 1, 1), labels
        )


class TestTrainer:
    def _make_trainer(self, method="ssgd", world=2, **agg_kwargs):
        rng = np.random.default_rng(0)
        dim, classes = 8, 4
        train = _FlatDataset.build(200, dim, classes, 1)
        test = _FlatDataset.build(80, dim, classes, 2)

        import repro.nn as nn

        model = nn.Sequential(nn.Flatten(), *make_mlp(dim, 16, classes, rng=rng).layers)
        group = ProcessGroup(world)
        aggregator = make_aggregator(method, group, **agg_kwargs)
        optimizer = SGD(model, lr=0.05, momentum=0.9)
        return DataParallelTrainer(
            model, optimizer, aggregator, train, test,
            batch_size_per_worker=16, seed=3,
        )

    def test_loss_decreases(self):
        trainer = self._make_trainer()
        first = np.mean([trainer.train_step() for _ in range(3)])
        for _ in range(25):
            last = trainer.train_step()
        assert last < first

    def test_accuracy_improves_over_chance(self):
        trainer = self._make_trainer()
        for _ in range(40):
            trainer.train_step()
        assert trainer.evaluate() > 0.5  # chance = 0.25

    def test_run_records_history(self):
        trainer = self._make_trainer()
        hist = trainer.run(epochs=2, steps_per_epoch=3)
        assert len(hist.epochs) == 2
        assert all(np.isfinite(hist.train_loss))

    def test_acpsgd_trains(self):
        trainer = self._make_trainer("acpsgd", rank=4)
        for _ in range(40):
            trainer.train_step()
        assert trainer.evaluate() > 0.5

    def test_validation(self):
        trainer = self._make_trainer()
        with pytest.raises(ValueError):
            trainer.run(epochs=0, steps_per_epoch=1)
        with pytest.raises(ValueError):
            DataParallelTrainer(
                trainer.model, trainer.optimizer, trainer.aggregator,
                _FlatDataset.build(10, 8, 4, 0), _FlatDataset.build(10, 8, 4, 1),
                batch_size_per_worker=0,
            )

    def test_ssgd_equals_singleworker_mean_gradient(self):
        """One aggregated S-SGD step == SGD on the mean of worker gradients."""
        trainer = self._make_trainer(world=3)
        trainer._workers.run_step([
            WorkerStepTask(
                rank=rank, slot=rank, shard_index=rank, shard_world=3,
                rng=trainer._rngs[rank],
            )
            for rank in range(3)
        ])
        per_worker = [trainer._arena.grads(slot) for slot in range(3)]
        aggregated = trainer.aggregator.aggregate(per_worker)
        for name in aggregated:
            manual = np.mean([g[name] for g in per_worker], axis=0)
            np.testing.assert_allclose(aggregated[name], manual, rtol=1e-10)
