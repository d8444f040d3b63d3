"""Tests for centralized training (one ``local_train`` call, as the Runner's
centralized kind makes it) and the evaluation helpers of the characterization
study."""

import numpy as np
import pytest

from repro.core.transforms import default_isp_transform
from repro.data.dataset import ArrayDataset
from repro.eval.centralized import evaluate_on_devices, evaluate_under_transform
from repro.fl.config import FLConfig
from repro.fl.training import evaluate_loss, evaluate_metric, local_train
from repro.isp.transforms import GaussianNoise
from repro.nn.flat import FlatParams
from repro.nn.models import SimpleMLP


@pytest.fixture
def separable_dataset():
    rng = np.random.default_rng(0)
    n, size = 36, 6
    labels = np.arange(n) % 3
    features = rng.normal(0.4, 0.05, size=(n, 3, size, size))
    for i, label in enumerate(labels):
        features[i, label] += 0.4
    return ArrayDataset(np.clip(features, 0, 1), labels)


def make_model():
    return SimpleMLP(3 * 6 * 6, 3, hidden=16, seed=0)


def train(model, dataset, epochs, learning_rate, **kwargs):
    """Centralized SGD: ``epochs`` local epochs from the model's own weights."""
    config = FLConfig(num_clients=1, clients_per_round=1, local_epochs=epochs,
                      batch_size=6, learning_rate=learning_rate)
    local_train(model, dataset, config, FlatParams.from_module(model).pack(), seed=0,
                **kwargs)
    return model


class TestCentralizedTraining:
    def test_training_improves_loss(self, separable_dataset):
        model = make_model()
        initial = evaluate_loss(model, separable_dataset, "classification")
        train(model, separable_dataset, epochs=8, learning_rate=0.3)
        assert evaluate_loss(model, separable_dataset, "classification") < initial

    def test_training_reaches_good_accuracy(self, separable_dataset):
        model = train(make_model(), separable_dataset, epochs=15, learning_rate=0.3)
        assert evaluate_metric(model, separable_dataset, "classification") > 0.7

    def test_invalid_epochs(self, separable_dataset):
        with pytest.raises(ValueError, match="local_epochs must be positive"):
            train(make_model(), separable_dataset, epochs=0, learning_rate=0.1)

    def test_with_transform(self, separable_dataset):
        transform = default_isp_transform(wb_degree=0.2, gamma_degree=0.2)
        rng = np.random.default_rng(0)
        model = train(make_model(), separable_dataset, epochs=3, learning_rate=0.2,
                      transform=lambda features, _: transform(features, rng))
        assert evaluate_metric(model, separable_dataset, "classification") >= 0.0


class TestEvaluationHelpers:
    def test_evaluate_on_devices(self, separable_dataset):
        model = make_model()
        metrics = evaluate_on_devices(model, {"a": separable_dataset, "b": separable_dataset})
        assert set(metrics) == {"a", "b"}
        assert metrics["a"] == pytest.approx(metrics["b"])

    def test_evaluate_under_transform_returns_accuracy(self, separable_dataset):
        model = train(make_model(), separable_dataset, epochs=10, learning_rate=0.3)
        clean = evaluate_metric(model, separable_dataset, "classification")
        perturbed = evaluate_under_transform(model, separable_dataset, GaussianNoise(0.0), seed=0)
        assert perturbed == pytest.approx(clean)

    def test_strong_noise_degrades_accuracy(self, separable_dataset):
        model = train(make_model(), separable_dataset, epochs=15, learning_rate=0.3)
        clean = evaluate_metric(model, separable_dataset, "classification")
        noisy = evaluate_under_transform(model, separable_dataset,
                                         GaussianNoise(degree=5.0, max_sigma=0.4), seed=0)
        assert noisy <= clean + 1e-9
