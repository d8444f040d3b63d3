"""Tests for FLConfig validation and the shared local-training loop."""

import numpy as np
import pytest
from store.test_checkpoint import _MODEL_KWARGS

from repro.data.dataset import ArrayDataset
from repro.fl.config import FLConfig
from repro.fl.training import (ClientResult, compute_loss, evaluate_loss, evaluate_metric,
                               local_train, measure_init_loss)
from repro.nn.flat import FlatParams
from repro.nn.models import MODEL_REGISTRY, SimpleMLP, create_model


class TestFLConfig:
    def test_defaults_match_paper(self):
        config = FLConfig()
        assert config.batch_size == 10
        assert config.local_epochs == 1
        assert config.learning_rate == 0.1
        assert config.clients_per_round == 20
        assert config.num_clients == 100
        assert config.ema_alpha == 0.9

    @pytest.mark.parametrize("kwargs", [
        {"num_clients": 0},
        {"clients_per_round": 0},
        {"clients_per_round": 101},
        {"num_rounds": 0},
        {"local_epochs": 0},
        {"batch_size": 0},
        {"learning_rate": 0.0},
        {"task": "segmentation"},
        {"ema_alpha": 0.0},
        {"ema_alpha": 1.5},
    ])
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FLConfig(**kwargs)

    def test_frozen(self):
        config = FLConfig()
        with pytest.raises(Exception):
            config.batch_size = 5


@pytest.fixture
def classification_setup():
    rng = np.random.default_rng(0)
    features = rng.normal(size=(20, 6))
    labels = (features[:, 0] > 0).astype(int)
    dataset = ArrayDataset(features, labels)
    model = SimpleMLP(6, 2, hidden=8, seed=0)
    config = FLConfig(num_clients=4, clients_per_round=2, num_rounds=1,
                      batch_size=5, learning_rate=0.2, local_epochs=2, seed=0)
    return model, dataset, config


class TestComputeAndEvaluate:
    def test_compute_loss_classification(self, classification_setup):
        model, dataset, config = classification_setup
        loss = compute_loss(model, dataset.features, dataset.labels, "classification")
        assert float(loss.data) > 0

    def test_compute_loss_unknown_task(self, classification_setup):
        model, dataset, _ = classification_setup
        with pytest.raises(ValueError):
            compute_loss(model, dataset.features, dataset.labels, "ranking")

    def test_evaluate_loss_no_grad_side_effects(self, classification_setup):
        model, dataset, _ = classification_setup
        evaluate_loss(model, dataset, "classification")
        assert all(p.grad is None for p in model.parameters())

    def test_evaluate_metric_range(self, classification_setup):
        model, dataset, _ = classification_setup
        metric = evaluate_metric(model, dataset, "classification")
        assert 0.0 <= metric <= 1.0

    def test_evaluate_metric_multilabel(self):
        model = SimpleMLP(4, 3, hidden=8, seed=0)
        dataset = ArrayDataset(np.random.default_rng(0).normal(size=(10, 4)),
                               (np.random.default_rng(1).random((10, 3)) > 0.5).astype(float))
        metric = evaluate_metric(model, dataset, "multilabel")
        assert 0.0 <= metric <= 1.0

    def test_evaluate_metric_regression(self):
        model = SimpleMLP(4, 1, hidden=8, seed=0)
        dataset = ArrayDataset(np.random.default_rng(0).normal(size=(10, 4)),
                               np.random.default_rng(1).random((10, 1)))
        metric = evaluate_metric(model, dataset, "regression")
        assert metric <= 1.0


def packed(model):
    """The model's weights as the round protocol broadcasts them."""
    return FlatParams.from_module(model).pack()


class TestLocalTrain:
    def test_returns_client_result(self, classification_setup):
        model, dataset, config = classification_setup
        global_vec = packed(model)
        init_loss = measure_init_loss(model, dataset, config, global_vec)
        result = local_train(model, dataset, config, global_vec, seed=0)
        assert isinstance(result, ClientResult)
        assert result.num_samples == len(dataset)
        assert result.train_loss > 0
        assert init_loss > 0
        # L_init is measured by the strategies that read it, not here.
        assert result.init_loss is None

    def test_training_changes_weights(self, classification_setup):
        model, dataset, config = classification_setup
        global_vec = packed(model)
        result = local_train(model, dataset, config, global_vec, seed=0)
        assert not np.allclose(result.vector, global_vec)

    def test_training_reduces_loss(self, classification_setup):
        model, dataset, _ = classification_setup
        config = FLConfig(num_clients=4, clients_per_round=2, num_rounds=1,
                          batch_size=5, learning_rate=0.3, local_epochs=10, seed=0)
        global_vec = packed(model)
        init_loss = measure_init_loss(model, dataset, config, global_vec)
        local_train(model, dataset, config, global_vec, seed=0)
        final_loss = evaluate_loss(model, dataset, "classification")
        assert final_loss < init_loss

    def test_starts_from_global_state(self, classification_setup):
        """local_train must overwrite whatever weights the model currently holds."""
        model, dataset, config = classification_setup
        global_vec = packed(model)
        clean = local_train(SimpleMLP(6, 2, hidden=8, seed=0), dataset, config,
                            global_vec, seed=0)
        # Scramble the model weights.
        for p in model.parameters():
            p.data += 10.0
        result = local_train(model, dataset, config, global_vec, seed=0)
        assert result.vector.tobytes() == clean.vector.tobytes()
        # The L_init helper loads the global weights too, so it measures a
        # sane cross-entropy value, not the loss of the scrambled model.
        for p in model.parameters():
            p.data += 10.0
        assert measure_init_loss(model, dataset, config, global_vec) < 20.0

    def test_transform_hook_called(self, classification_setup):
        model, dataset, config = classification_setup
        calls = {"count": 0}

        def transform(features, labels):
            calls["count"] += 1
            return features

        local_train(model, dataset, config, packed(model), transform=transform, seed=0)
        assert calls["count"] > 0

    def test_batch_hook_called_once_per_batch(self, classification_setup):
        model, dataset, config = classification_setup
        seen = []

        def hook(hook_model, batch_index, epoch_index):
            seen.append((epoch_index, batch_index))

        local_train(model, dataset, config, packed(model), batch_hook=hook, seed=0)
        batches_per_epoch = int(np.ceil(len(dataset) / config.batch_size))
        assert len(seen) == batches_per_epoch * config.local_epochs

    def test_deterministic_given_seed(self, classification_setup):
        model, dataset, config = classification_setup
        global_vec = packed(model)
        a = local_train(model, dataset, config, global_vec, seed=7)
        b = local_train(model, dataset, config, global_vec, seed=7)
        np.testing.assert_allclose(a.vector, b.vector)

    def test_different_seeds_differ(self, classification_setup):
        model, dataset, config = classification_setup
        global_vec = packed(model)
        a = local_train(model, dataset, config, global_vec, seed=1)
        b = local_train(model, dataset, config, global_vec, seed=2)
        assert not np.allclose(a.vector, b.vector)

    def test_optimizer_steps_the_model_arena(self, classification_setup, monkeypatch):
        """local_train's SGD and FedProx's ProximalSGD step the object
        ``FlatParams.from_module`` returns, the arena the broadcast lands in."""
        from repro.core.ema import EMALossTracker
        from repro.data.partition import ClientSpec
        from repro.fl.strategies import FedProx, FLContext
        from repro.nn.optim import SGD

        model, dataset, config = classification_setup
        stepped = []
        step = SGD.step

        def recording_step(self):
            stepped.append((type(self).__name__, self.arena))
            step(self)

        monkeypatch.setattr(SGD, "step", recording_step)
        local_train(model, dataset, config, packed(model), seed=0)
        FedProx(mu=0.1).client_update(
            model, ClientSpec(client_id=0, device="S6", dataset=dataset), packed(model),
            FLContext(config=config, ema=EMALossTracker()))
        assert {name for name, _ in stepped} == {"SGD", "ProximalSGD"}
        arena = FlatParams.from_module(model)
        assert all(stepped_arena is arena for _, stepped_arena in stepped)


@pytest.mark.parametrize("name", sorted(_MODEL_KWARGS))
def test_every_registered_model_step_has_every_gradient(name):
    """A step needs a gradient for every parameter (``FlatParams.gather_grad``
    refuses otherwise): one ``local_train`` step of each registered model
    leaves none without one."""
    assert set(_MODEL_KWARGS) == set(MODEL_REGISTRY), \
        "update _MODEL_KWARGS when registering a new model"
    model = create_model(name, **_MODEL_KWARGS[name])
    rng = np.random.default_rng(0)
    if name == "ecg_regressor":
        features, labels, task = rng.normal(size=(4, 16)), rng.normal(size=(4, 1)), "regression"
    elif name == "multilabel_cnn":
        features = rng.normal(size=(4, 3, 8, 8))
        labels, task = rng.integers(0, 2, size=(4, 3)).astype(float), "multilabel"
    else:
        features = rng.normal(size=(4, 3, 8, 8))
        labels, task = np.array([0, 1, 2, 0]), "classification"
    config = FLConfig(num_clients=4, clients_per_round=2, num_rounds=1, batch_size=4,
                      learning_rate=0.01, task=task, seed=0)
    missing = []

    def hook(hook_model, batch_index, epoch_index):
        missing.extend(pname for pname, param in hook_model.named_parameters()
                       if param.grad is None)

    local_train(model, ArrayDataset(features, labels), config, packed(model),
                batch_hook=hook, seed=0)
    assert missing == []
