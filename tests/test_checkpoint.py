"""Checkpoint round-trips: parameters, momentum and bitwise resume."""

import numpy as np
import pytest

from repro.models.convnets import make_mlp
from repro.optim.sgd import SGD
from repro.train.checkpoint import load_checkpoint, save_checkpoint


class TestCheckpoint:
    def _train_a_bit(self, model, opt, rng, steps=3):
        from repro.nn.loss import CrossEntropyLoss

        loss_fn = CrossEntropyLoss()
        for _ in range(steps):
            x = rng.normal(size=(8, 6))
            y = rng.integers(0, 3, size=8)
            model.zero_grad()
            loss_fn(model(x), y)
            model.backward(loss_fn.backward())
            opt.step()

    def test_roundtrip_restores_parameters_and_momentum(self, rng, tmp_path):
        model = make_mlp(6, 12, 3, rng=np.random.default_rng(0))
        opt = SGD(model, lr=0.05, momentum=0.9)
        self._train_a_bit(model, opt, rng)
        path = str(tmp_path / "ckpt.npz")
        save_checkpoint(path, model, opt, metadata={"epoch": 7})

        model2 = make_mlp(6, 12, 3, rng=np.random.default_rng(99))
        opt2 = SGD(model2, lr=0.3, momentum=0.9)
        meta = load_checkpoint(path, model2, opt2)
        assert meta == {"epoch": 7}
        np.testing.assert_array_equal(model2.state_vector(), model.state_vector())
        assert opt2.lr == pytest.approx(0.05)
        assert set(opt2._velocity) == set(opt._velocity)
        for name in opt._velocity:
            np.testing.assert_array_equal(opt2._velocity[name], opt._velocity[name])

    def test_resumed_training_is_bitwise_identical(self, rng, tmp_path):
        """Training 3+3 steps with a checkpoint in between equals 6 straight
        steps on the same data."""
        data_rng1 = np.random.default_rng(5)
        model_a = make_mlp(6, 12, 3, rng=np.random.default_rng(0))
        opt_a = SGD(model_a, lr=0.05, momentum=0.9)
        self._train_a_bit(model_a, opt_a, data_rng1, steps=6)

        data_rng2 = np.random.default_rng(5)
        model_b = make_mlp(6, 12, 3, rng=np.random.default_rng(0))
        opt_b = SGD(model_b, lr=0.05, momentum=0.9)
        self._train_a_bit(model_b, opt_b, data_rng2, steps=3)
        path = str(tmp_path / "mid.npz")
        save_checkpoint(path, model_b, opt_b)
        model_c = make_mlp(6, 12, 3, rng=np.random.default_rng(42))
        opt_c = SGD(model_c, lr=0.1, momentum=0.9)
        load_checkpoint(path, model_c, opt_c)
        self._train_a_bit(model_c, opt_c, data_rng2, steps=3)
        np.testing.assert_allclose(
            model_c.state_vector(), model_a.state_vector(), rtol=1e-12
        )

    def test_parameter_count_mismatch_rejected(self, rng, tmp_path):
        model = make_mlp(6, 12, 3, rng=np.random.default_rng(0))
        opt = SGD(model, lr=0.05)
        path = str(tmp_path / "ckpt.npz")
        save_checkpoint(path, model, opt)
        other = make_mlp(6, 8, 3, rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match="parameters"):
            load_checkpoint(path, other, SGD(other, lr=0.05))
