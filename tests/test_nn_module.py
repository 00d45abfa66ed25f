"""Module base class: parameter discovery, hooks, state vectors."""

import numpy as np
import pytest

from repro import nn
from repro.nn.parameter import Parameter


class TestParameterDiscovery:
    def test_named_parameters_are_stamped(self, rng):
        model = nn.Sequential(nn.Linear(3, 4, rng=rng), nn.ReLU(),
                              nn.Linear(4, 2, rng=rng))
        names = [name for name, _ in model.named_parameters()]
        assert names == [
            "layers.0.weight", "layers.0.bias",
            "layers.2.weight", "layers.2.bias",
        ]
        for name, param in model.named_parameters():
            assert param.name == name

    def test_num_parameters(self, rng):
        model = nn.Linear(10, 5, rng=rng)
        assert model.num_parameters() == 10 * 5 + 5

    def test_nested_modules_discovered(self, rng):
        class Wrapper(nn.Module):
            def __init__(self):
                super().__init__()
                self.inner = nn.Linear(2, 2, rng=rng)
                self.extras = [nn.Linear(2, 2, rng=rng)]

        names = [name for name, _ in Wrapper().named_parameters()]
        assert "inner.weight" in names
        assert "extras.0.weight" in names

    def test_zero_grad(self, rng):
        layer = nn.Linear(3, 2, rng=rng)
        layer(rng.normal(size=(1, 3)))
        layer.backward(np.ones((1, 2)))
        assert layer.weight.grad is not None
        layer.zero_grad()
        assert layer.weight.grad is None


class TestTrainEvalPropagation:
    def test_mode_propagates_to_children(self, rng):
        model = nn.Sequential(nn.Dropout(0.5), nn.BatchNorm2d(2))
        model.eval()
        assert not model.layers[0].training
        assert not model.layers[1].training
        model.train()
        assert model.layers[0].training


class TestStateVector:
    def test_roundtrip(self, rng):
        model = nn.Sequential(nn.Linear(4, 3, rng=rng), nn.Linear(3, 2, rng=rng))
        state = model.state_vector()
        assert state.size == model.num_parameters()
        model2 = nn.Sequential(nn.Linear(4, 3, rng=np.random.default_rng(99)),
                               nn.Linear(3, 2, rng=np.random.default_rng(98)))
        model2.load_state_vector(state)
        np.testing.assert_array_equal(model2.state_vector(), state)

    def test_size_mismatch_rejected(self, rng):
        model = nn.Linear(2, 2, rng=rng)
        with pytest.raises(ValueError, match="state vector"):
            model.load_state_vector(np.zeros(3))


class TestGradientHooks:
    def test_hook_fires_on_accumulate(self):
        param = Parameter(np.zeros((2, 2)))
        seen = []
        param.register_hook(lambda p: seen.append(p.grad.copy()))
        param.accumulate_grad(np.ones((2, 2)))
        assert len(seen) == 1
        np.testing.assert_array_equal(seen[0], np.ones((2, 2)))

    def test_hooks_fire_in_backward_layer_order(self, rng):
        """WFBP readiness order: the LAST layer's gradient is ready FIRST."""
        model = nn.Sequential(nn.Linear(3, 3, rng=rng), nn.Linear(3, 3, rng=rng))
        order = []
        for name, param in model.named_parameters():
            param.register_hook(lambda p: order.append(p.name))
        model(rng.normal(size=(1, 3)))
        model.backward(np.ones((1, 3)))
        # Layer 1 (the output layer) fires before layer 0.
        assert order.index("layers.1.weight") < order.index("layers.0.weight")

    def test_grad_shape_validation(self):
        param = Parameter(np.zeros((2, 2)))
        with pytest.raises(ValueError, match="grad shape"):
            param.accumulate_grad(np.ones(3))

    def test_clear_hooks(self):
        param = Parameter(np.zeros(2))
        seen = []
        param.register_hook(lambda p: seen.append(1))
        param.clear_hooks()
        param.accumulate_grad(np.ones(2))
        assert seen == []

    def test_grad_accumulates_across_calls(self):
        param = Parameter(np.zeros(3))
        param.accumulate_grad(np.ones(3))
        param.accumulate_grad(np.ones(3))
        np.testing.assert_array_equal(param.grad, 2 * np.ones(3))


class TestDtype:
    """Layers build float32; one cast moves a whole model, buffers too."""

    def test_layers_build_float32_and_astype_casts_everything(self, rng):
        model = nn.Sequential(
            nn.Conv2d(3, 4, 3, rng=rng), nn.BatchNorm2d(4), nn.ReLU(),
            nn.Flatten(), nn.Linear(4 * 4 * 4, 2, rng=rng),
        )
        assert model.dtype == np.float32
        assert model.astype(np.float64) is model
        assert model.dtype == np.float64
        bn = model[1]
        assert bn.running_mean.dtype == bn.running_var.dtype == np.float64
        out = model(rng.normal(size=(2, 3, 6, 6)))
        assert out.dtype == np.float64

    def test_mixed_parameters_are_rejected(self, rng):
        layer = nn.Linear(3, 2, rng=rng)
        layer.bias.data = layer.bias.data.astype(np.float64)
        with pytest.raises(ValueError, match="one dtype"):
            layer.dtype

    def test_as_input_casts_floats_and_passes_ids(self, rng):
        layer = nn.Linear(3, 2, rng=rng)
        assert layer.as_input(rng.normal(size=(2, 3))).dtype == np.float32
        ids = np.arange(4)
        assert layer.as_input(ids) is ids

    def test_state_vector_loads_in_the_parameters_dtype(self, rng):
        model = nn.Linear(3, 2, rng=rng)
        model.load_state_vector(np.arange(8, dtype=np.float64))
        assert model.dtype == np.float32
        assert np.array_equal(model.state_vector(), np.arange(8))

    def test_parameter_rejects_integer_data(self):
        with pytest.raises(ValueError, match="floating"):
            Parameter(np.arange(3))
