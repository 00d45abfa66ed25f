"""Layer-by-layer finite-difference gradient checks and behaviours."""

import numpy as np
import pytest

from repro import nn
from tests.gradcheck import check_layer_gradients, numeric_grad


class TestLinear:
    def test_forward_shape(self, rng):
        layer = nn.Linear(5, 3, rng=rng)
        out = layer(rng.normal(size=(4, 5)))
        assert out.shape == (4, 3)

    def test_gradients(self, rng):
        layer = nn.Linear(4, 3, rng=rng)
        check_layer_gradients(layer, rng.normal(size=(2, 4)))

    def test_gradients_no_bias(self, rng):
        layer = nn.Linear(4, 3, bias=False, rng=rng)
        check_layer_gradients(layer, rng.normal(size=(2, 4)))

    def test_3d_input(self, rng):
        """Sequence inputs (batch, seq, features) must work (BERT-style)."""
        layer = nn.Linear(4, 6, rng=rng)
        out = layer(rng.normal(size=(2, 3, 4)))
        assert out.shape == (2, 3, 6)
        check_layer_gradients(layer, rng.normal(size=(2, 3, 4)))

    def test_input_dim_validation(self, rng):
        layer = nn.Linear(4, 3, rng=rng)
        with pytest.raises(ValueError, match="in_features"):
            layer(rng.normal(size=(2, 5)))

    def test_backward_before_forward_raises(self, rng):
        layer = nn.Linear(4, 3, rng=rng)
        with pytest.raises(RuntimeError, match="before forward"):
            layer.backward(rng.normal(size=(2, 3)))

    def test_eval_forward_keeps_no_input_alive(self, rng):
        """Like Conv2d / pooling / BatchNorm2d: the input is cached for
        backward in training mode only, so an evaluation pass leaves no
        batch pinned until the next backward."""
        layer = nn.Linear(4, 3, rng=rng)
        x = rng.normal(size=(2, 4))
        layer.eval()
        np.testing.assert_array_equal(
            layer(x), x @ layer.weight.data.T + layer.bias.data
        )
        assert layer._cache_input is None
        with pytest.raises(RuntimeError, match="before forward"):
            layer.backward(rng.normal(size=(2, 3)))
        layer.train()
        layer(x)
        assert layer._cache_input is x


class TestConv2d:
    def test_forward_shape(self, rng):
        layer = nn.Conv2d(3, 8, 3, padding=1, rng=rng)
        out = layer(rng.normal(size=(2, 3, 8, 8)))
        assert out.shape == (2, 8, 8, 8)

    def test_forward_stride(self, rng):
        layer = nn.Conv2d(3, 4, 3, stride=2, padding=1, rng=rng)
        out = layer(rng.normal(size=(1, 3, 8, 8)))
        assert out.shape == (1, 4, 4, 4)

    def test_gradients(self, rng):
        layer = nn.Conv2d(2, 3, 3, padding=1, rng=rng)
        check_layer_gradients(layer, rng.normal(size=(2, 2, 5, 5)))

    def test_gradients_strided_no_bias(self, rng):
        layer = nn.Conv2d(2, 3, 3, stride=2, padding=1, bias=False, rng=rng)
        check_layer_gradients(layer, rng.normal(size=(1, 2, 6, 6)))

    def test_gradients_1x1(self, rng):
        layer = nn.Conv2d(3, 2, 1, rng=rng)
        check_layer_gradients(layer, rng.normal(size=(2, 3, 4, 4)))

    def test_matches_manual_convolution(self, rng):
        """Cross-check the im2col path against a direct loop convolution."""
        layer = nn.Conv2d(1, 1, 3, bias=False, rng=rng)
        x = rng.normal(size=(1, 1, 5, 5))
        out = layer(x)
        kernel = layer.weight.data[0, 0]
        manual = np.zeros((3, 3))
        for i in range(3):
            for j in range(3):
                manual[i, j] = (x[0, 0, i : i + 3, j : j + 3] * kernel).sum()
        np.testing.assert_allclose(out[0, 0], manual, rtol=1e-10)

    def test_channel_validation(self, rng):
        layer = nn.Conv2d(3, 4, 3, rng=rng)
        with pytest.raises(ValueError, match="channels"):
            layer(rng.normal(size=(1, 2, 8, 8)))

    def test_geometry_validation(self):
        with pytest.raises(ValueError, match="geometry"):
            nn.Conv2d(3, 4, 0)


class TestBatchNorm2d:
    def test_normalizes_in_training(self, rng):
        layer = nn.BatchNorm2d(4)
        x = rng.normal(loc=3.0, scale=2.0, size=(8, 4, 6, 6))
        out = layer(x)
        np.testing.assert_allclose(out.mean(axis=(0, 2, 3)), 0.0, atol=1e-7)
        np.testing.assert_allclose(out.std(axis=(0, 2, 3)), 1.0, atol=1e-2)

    def test_gradients(self, rng):
        layer = nn.BatchNorm2d(3)
        check_layer_gradients(layer, rng.normal(size=(4, 3, 3, 3)), rtol=1e-4, atol=1e-6)

    def test_eval_uses_running_stats(self, rng):
        layer = nn.BatchNorm2d(2)
        for _ in range(30):
            layer(rng.normal(loc=1.0, size=(16, 2, 4, 4)))
        layer.eval()
        x = rng.normal(loc=1.0, size=(4, 2, 4, 4))
        out = layer(x)
        # With running mean ~1, output mean should be ~0.
        assert abs(out.mean()) < 0.3

    def test_running_stats_not_parameters(self):
        layer = nn.BatchNorm2d(4)
        names = [name for name, _ in layer.named_parameters()]
        assert names == ["weight", "bias"]


class TestLayerNorm:
    def test_normalizes_last_dim(self, rng):
        layer = nn.LayerNorm(8)
        out = layer(rng.normal(loc=5.0, size=(3, 4, 8)))
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-7)

    def test_gradients(self, rng):
        layer = nn.LayerNorm(5)
        check_layer_gradients(layer, rng.normal(size=(2, 3, 5)), rtol=1e-4, atol=1e-6)

    def test_dim_validation(self, rng):
        layer = nn.LayerNorm(8)
        with pytest.raises(ValueError, match="last dim"):
            layer(rng.normal(size=(2, 7)))


class TestActivations:
    @pytest.mark.parametrize("cls", [nn.ReLU, nn.GELU])
    def test_gradients(self, cls, rng):
        layer = cls()
        # Keep x away from ReLU's kink for a clean finite-difference check.
        x = rng.normal(size=(3, 4))
        x = np.where(np.abs(x) < 0.05, 0.2, x)
        check_layer_gradients(layer, x, rtol=1e-4, atol=1e-7)

    def test_relu_clamps(self, rng):
        out = nn.ReLU()(np.array([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(out, [0.0, 0.0, 2.0])

    def test_gelu_known_values(self):
        layer = nn.GELU()
        # GELU(0) = 0; GELU(large) ~ identity; GELU(-large) ~ 0.
        out = layer(np.array([0.0, 10.0, -10.0]))
        assert out[0] == pytest.approx(0.0)
        assert out[1] == pytest.approx(10.0, rel=1e-4)
        assert out[2] == pytest.approx(0.0, abs=1e-3)


class TestPooling:
    def test_maxpool_values(self):
        layer = nn.MaxPool2d(2)
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        out = layer(x)
        np.testing.assert_array_equal(out[0, 0], [[5, 7], [13, 15]])

    def test_maxpool_gradients(self, rng):
        layer = nn.MaxPool2d(2)
        # Distinct values so argmax is stable under perturbation.
        x = rng.permutation(64).astype(float).reshape(1, 1, 8, 8) * 0.1
        check_layer_gradients(layer, x, rtol=1e-4, atol=1e-7)

    def test_avgpool_values(self):
        layer = nn.AvgPool2d(2)
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        out = layer(x)
        np.testing.assert_allclose(out[0, 0], [[2.5, 4.5], [10.5, 12.5]])

    def test_avgpool_gradients(self, rng):
        layer = nn.AvgPool2d(2)
        check_layer_gradients(layer, rng.normal(size=(2, 2, 4, 4)), rtol=1e-4, atol=1e-7)

    def test_global_avgpool(self, rng):
        layer = nn.GlobalAvgPool2d()
        x = rng.normal(size=(2, 3, 4, 4))
        out = layer(x)
        assert out.shape == (2, 3)
        np.testing.assert_allclose(out, x.mean(axis=(2, 3)))
        check_layer_gradients(layer, x, rtol=1e-4, atol=1e-7)


class TestDropout:
    def test_identity_in_eval(self, rng):
        layer = nn.Dropout(0.5, rng=rng)
        layer.eval()
        x = rng.normal(size=(4, 4))
        np.testing.assert_array_equal(layer(x), x)

    def test_preserves_expectation(self, rng):
        layer = nn.Dropout(0.3, rng=rng)
        x = np.ones((200, 200))
        out = layer(x)
        assert out.mean() == pytest.approx(1.0, abs=0.02)

    def test_backward_applies_same_mask(self, rng):
        layer = nn.Dropout(0.5, rng=rng)
        x = np.ones((10, 10))
        out = layer(x)
        grad = layer.backward(np.ones_like(x))
        np.testing.assert_array_equal((out > 0), (grad > 0))

    def test_invalid_probability(self):
        with pytest.raises(ValueError, match="probability"):
            nn.Dropout(1.0)


class TestEmbedding:
    def test_lookup(self, rng):
        layer = nn.Embedding(10, 4, rng=rng)
        ids = np.array([[1, 2], [3, 1]])
        out = layer(ids)
        assert out.shape == (2, 2, 4)
        np.testing.assert_array_equal(out[0, 0], layer.weight.data[1])

    def test_gradient_accumulates_repeated_ids(self, rng):
        layer = nn.Embedding(5, 3, rng=rng)
        ids = np.array([1, 1, 1])
        layer(ids)
        layer.backward(np.ones((3, 3)))
        np.testing.assert_allclose(layer.weight.grad[1], [3.0, 3.0, 3.0])
        np.testing.assert_allclose(layer.weight.grad[0], 0.0)

    def test_rejects_float_ids(self, rng):
        layer = nn.Embedding(5, 3, rng=rng)
        with pytest.raises(ValueError, match="integer"):
            layer(np.array([1.5]))

    def test_rejects_out_of_range(self, rng):
        layer = nn.Embedding(5, 3, rng=rng)
        with pytest.raises(ValueError, match="range"):
            layer(np.array([5]))


class TestFlattenAndSequential:
    def test_flatten_roundtrip(self, rng):
        layer = nn.Flatten()
        x = rng.normal(size=(2, 3, 4))
        out = layer(x)
        assert out.shape == (2, 12)
        grad = layer.backward(out)
        assert grad.shape == x.shape

    def test_sequential_chains(self, rng):
        model = nn.Sequential(nn.Linear(4, 8, rng=rng), nn.ReLU(),
                              nn.Linear(8, 2, rng=rng))
        out = model(rng.normal(size=(3, 4)))
        assert out.shape == (3, 2)
        grad = model.backward(np.ones((3, 2)))
        assert grad.shape == (3, 4)

    def test_sequential_gradcheck(self, rng):
        model = nn.Sequential(nn.Linear(3, 5, rng=rng), nn.GELU(),
                              nn.Linear(5, 2, rng=rng))
        check_layer_gradients(model, rng.normal(size=(2, 3)), rtol=1e-4, atol=1e-7)

    def test_sequential_container_protocol(self, rng):
        model = nn.Sequential(nn.ReLU(), nn.GELU())
        assert len(model) == 2
        assert isinstance(model[0], nn.ReLU)
        model.append(nn.ReLU())
        assert len(model) == 3
