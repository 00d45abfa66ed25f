"""Loss functions: values and gradients."""

import numpy as np
import pytest

from repro.nn.loss import CrossEntropyLoss
from tests.gradcheck import numeric_grad


class TestCrossEntropy:
    def test_uniform_logits_give_log_classes(self):
        loss = CrossEntropyLoss()
        logits = np.zeros((4, 10))
        labels = np.array([0, 3, 5, 9])
        assert loss(logits, labels) == pytest.approx(np.log(10))

    def test_perfect_prediction_near_zero(self):
        loss = CrossEntropyLoss()
        logits = np.full((2, 3), -50.0)
        logits[0, 1] = 50.0
        logits[1, 2] = 50.0
        assert loss(logits, np.array([1, 2])) == pytest.approx(0.0, abs=1e-6)

    def test_gradient_matches_numeric(self, rng):
        loss = CrossEntropyLoss()
        logits = rng.normal(size=(3, 5))
        labels = np.array([1, 0, 4])
        loss(logits, labels)
        analytic = loss.backward()
        numeric = numeric_grad(lambda: loss.forward(logits, labels), logits)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-5, atol=1e-8)

    def test_gradient_rows_sum_to_zero(self, rng):
        loss = CrossEntropyLoss()
        logits = rng.normal(size=(4, 6))
        loss(logits, np.array([0, 1, 2, 3]))
        grad = loss.backward()
        np.testing.assert_allclose(grad.sum(axis=1), 0.0, atol=1e-12)

    def test_numerical_stability_huge_logits(self):
        loss = CrossEntropyLoss()
        logits = np.array([[1e4, -1e4, 0.0]])
        value = loss(logits, np.array([0]))
        assert np.isfinite(value)
        assert value == pytest.approx(0.0, abs=1e-6)

    def test_shape_validation(self, rng):
        loss = CrossEntropyLoss()
        with pytest.raises(ValueError, match="labels"):
            loss(rng.normal(size=(3, 4)), np.array([0, 1]))
        with pytest.raises(ValueError, match="logits"):
            loss(rng.normal(size=(3,)), np.array([0, 1, 2]))

    def test_backward_before_forward(self):
        with pytest.raises(RuntimeError, match="before forward"):
            CrossEntropyLoss().backward()

