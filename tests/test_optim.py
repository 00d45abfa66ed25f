"""SGD with momentum and the warmup/multi-step LR schedule."""

import numpy as np
import pytest

from repro import nn
from repro.models.convnets import make_mlp
from repro.nn.parameter import Parameter
from repro.optim import decoded
from repro.optim.lr_scheduler import WarmupMultiStepSchedule
from repro.optim.sgd import SGD


def _model(rng):
    return nn.Linear(3, 2, rng=rng)


class TestSGD:
    def test_plain_step_matches_manual(self, rng):
        model = _model(rng)
        opt = SGD(model, lr=0.1, momentum=0.0)
        before = model.weight.data.copy()
        grad = rng.normal(size=model.weight.shape)
        opt.step({"weight": grad, "bias": np.zeros(2)})
        np.testing.assert_allclose(model.weight.data, before - 0.1 * grad)

    def test_momentum_accumulates(self, rng):
        model = _model(rng)
        opt = SGD(model, lr=1.0, momentum=0.9)
        grad = np.ones(model.weight.shape)
        before = model.weight.data.copy()
        opt.step({"weight": grad})
        opt.step({"weight": grad})
        # Updates: v1 = g, v2 = 0.9 g + g = 1.9 g -> total 2.9 g.
        np.testing.assert_allclose(model.weight.data, before - 2.9 * grad)

    def test_weight_decay(self, rng):
        model = _model(rng)
        opt = SGD(model, lr=0.1, momentum=0.0, weight_decay=0.01)
        before = model.weight.data.copy()
        opt.step({"weight": np.zeros(model.weight.shape)})
        np.testing.assert_allclose(model.weight.data, before * (1 - 0.1 * 0.01))

    def test_uses_param_grads_when_no_dict(self, rng):
        model = _model(rng)
        x = rng.normal(size=(4, 3))
        model(x)
        model.backward(np.ones((4, 2)))
        before = model.weight.data.copy()
        opt = SGD(model, lr=0.1, momentum=0.0)
        opt.step()
        assert not np.allclose(model.weight.data, before)

    def test_missing_grads_skipped(self, rng):
        model = _model(rng)
        before = model.bias.data.copy()
        SGD(model, lr=0.1).step({"weight": np.zeros(model.weight.shape)})
        np.testing.assert_array_equal(model.bias.data, before)

    def test_shape_validation(self, rng):
        model = _model(rng)
        opt = SGD(model, lr=0.1)
        with pytest.raises(ValueError, match="gradient shape"):
            opt.step({"weight": np.zeros(5)})

    def test_hyperparameter_validation(self, rng):
        model = _model(rng)
        with pytest.raises(ValueError):
            SGD(model, lr=0.0)
        with pytest.raises(ValueError):
            SGD(model, lr=0.1, momentum=1.0)
        with pytest.raises(ValueError):
            SGD(model, lr=0.1, weight_decay=-1)


def _holding(**params):
    """A bare module whose parameters are ``params`` (arrays kept as given)."""
    module = nn.Module()
    for name, data in params.items():
        setattr(module, name, Parameter(data))
    return module


def _reference_update(weight, grads, lr, momentum, weight_decay):
    """The textbook out-of-place update over a gradient stream."""
    velocity = None
    for grad in grads:
        if weight_decay:
            grad = grad + weight_decay * weight
        if velocity is None or not momentum:
            velocity = grad.astype(np.float64, copy=True)
        else:
            velocity = momentum * velocity + grad
        weight = weight - lr * velocity
    return weight, velocity


class TestBlockedStep:
    """``SGD.step`` runs one block at a time and is bitwise the textbook update."""

    @pytest.mark.parametrize("momentum", [0.9, 0.0])
    @pytest.mark.parametrize("weight_decay", [0.0, 5e-4])
    @pytest.mark.parametrize("size", [1, 32_767, 32_768, 32_769, 100_003])
    def test_vector_update_is_the_out_of_place_reference(
        self, size, momentum, weight_decay
    ):
        rng = np.random.default_rng(size)
        start = rng.standard_normal(size)
        model = _holding(w=start.copy())
        optimizer = SGD(model, lr=0.05, momentum=momentum, weight_decay=weight_decay)
        grads = [rng.standard_normal(size) for _ in range(3)]
        for steps in range(1, len(grads) + 1):  # the first step, then two more
            optimizer.step({"w": grads[steps - 1]})
            weight, velocity = _reference_update(
                start, grads[:steps], 0.05, momentum, weight_decay
            )
            assert model.w.data.tobytes() == weight.tobytes(), steps
            assert optimizer._velocity["w"].tobytes() == velocity.tobytes(), steps

    @pytest.mark.parametrize("momentum", [0.9, 0.0])
    @pytest.mark.parametrize("weight_decay", [0.0, 5e-4])
    def test_transposed_views_are_updated_in_place(self, momentum, weight_decay):
        """A non-contiguous ``param.data`` has no flat view: the blocks must
        still be views of it, or the update lands in a copy and is lost."""
        rng = np.random.default_rng(3)
        base = rng.standard_normal((300, 257))
        start = base.T.copy()
        model = _holding(w=base.T)
        assert not model.w.data.flags.c_contiguous
        optimizer = SGD(model, lr=0.05, momentum=momentum, weight_decay=weight_decay)
        grads = [rng.standard_normal((300, 257)).T for _ in range(3)]
        for steps in range(1, len(grads) + 1):
            optimizer.step({"w": grads[steps - 1]})
            weight, velocity = _reference_update(
                start, grads[:steps], 0.05, momentum, weight_decay
            )
            assert np.shares_memory(model.w.data, base)
            np.testing.assert_array_equal(base.T, weight)
            np.testing.assert_array_equal(optimizer._velocity["w"], velocity)

    @pytest.mark.parametrize("weight_decay", [0.0, 5e-4])
    @pytest.mark.parametrize("source", ["dict", "grad"])
    def test_zero_dim_parameter_is_one_block(self, source, weight_decay):
        """A scalar parameter is updated like a one-element vector, from an
        aggregated dict and from its own ``.grad``."""
        model = _holding(s=np.array(1.5), w=np.zeros(3))
        optimizer = SGD(model, lr=0.05, momentum=0.9, weight_decay=weight_decay)
        grads = [np.array(0.25), np.array(-2.0), np.array(0.5)]
        for steps in range(1, len(grads) + 1):
            grad = grads[steps - 1]
            if source == "dict":
                optimizer.step({"s": grad})
            else:
                model.s.zero_grad()
                model.s.accumulate_grad(grad)
                optimizer.step()
            weight, velocity = _reference_update(
                np.array(1.5), grads[:steps], 0.05, 0.9, weight_decay
            )
            assert model.s.data.shape == ()
            assert model.s.data.tobytes() == weight.tobytes(), steps
            assert optimizer._velocity["s"].tobytes() == velocity.tobytes()

    def test_scratch_is_one_block(self):
        rng = np.random.default_rng(0)
        for model in (
            make_mlp(768, 1024, 10, depth=3, rng=rng),
            _holding(w=np.zeros(100_003), b=np.zeros((4, 5))),
        ):
            optimizer = SGD(model, lr=0.1, weight_decay=1e-4)
            assert 0 < optimizer._scratch.size <= decoded._BLOCK_ELEMENTS
            largest = max(p.size for p in model.parameters())
            assert optimizer._scratch.size < largest


class TestSchedule:
    def _schedule(self, rng, **kwargs):
        opt = SGD(_model(rng), lr=0.1)
        defaults = dict(base_lr=0.1, total_epochs=300, warmup_epochs=5,
                        milestones=(150, 220), gamma=0.1)
        defaults.update(kwargs)
        return WarmupMultiStepSchedule(opt, **defaults)

    def test_warmup_ramps_linearly(self, rng):
        sched = self._schedule(rng)
        assert sched.lr_at(0) < sched.lr_at(2.5) < sched.lr_at(4.9)
        assert sched.lr_at(2.5) == pytest.approx(0.05, rel=0.01)

    def test_plateau_then_decays(self, rng):
        sched = self._schedule(rng)
        assert sched.lr_at(100) == pytest.approx(0.1)
        assert sched.lr_at(160) == pytest.approx(0.01)
        assert sched.lr_at(250) == pytest.approx(0.001)

    def test_set_epoch_updates_optimizer(self, rng):
        sched = self._schedule(rng)
        sched.set_epoch(200)
        assert sched.optimizer.lr == pytest.approx(0.01)

    def test_no_warmup(self, rng):
        sched = self._schedule(rng, warmup_epochs=0)
        assert sched.lr_at(0) == pytest.approx(0.1)

    def test_validation(self, rng):
        with pytest.raises(ValueError, match="sorted"):
            self._schedule(rng, milestones=(220, 150))
        with pytest.raises(ValueError, match="warmup"):
            self._schedule(rng, warmup_epochs=500)
        sched = self._schedule(rng)
        with pytest.raises(ValueError, match="epoch"):
            sched.lr_at(-1)
