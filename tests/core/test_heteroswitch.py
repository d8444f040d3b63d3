"""Tests for the HeteroSwitch strategy (Algorithm 1) and its ablations."""

import numpy as np
import pytest

from repro.core.ema import EMALossTracker
from repro.core.heteroswitch import HeteroSwitch, ISPTransformOnly, ISPTransformWithSWAD
from repro.core.transforms import default_isp_transform, ecg_transform
from repro.data.dataset import ArrayDataset
from repro.data.partition import ClientSpec
from repro.fl.config import FLConfig
from repro.fl.strategies.base import FLContext
from repro.nn.flat import FlatParams
from repro.nn.models import SimpleMLP


def make_image_spec(client_id=0, n=12, size=8, classes=3, seed=0):
    rng = np.random.default_rng(seed)
    features = np.clip(rng.random((n, 3, size, size)), 0, 1)
    labels = rng.integers(0, classes, size=n)
    return ClientSpec(client_id=client_id, device="S6",
                      dataset=ArrayDataset(features, labels))


def make_context(ema_value=None, seed=0):
    config = FLConfig(num_clients=4, clients_per_round=2, num_rounds=1,
                      batch_size=4, learning_rate=0.1, seed=seed)
    ema = EMALossTracker()
    if ema_value is not None:
        ema.update(ema_value)
    return FLContext(config=config, ema=ema)


def make_model(size=8, classes=3):
    return SimpleMLP(3 * size * size, classes, hidden=8, seed=0)


def packed(model):
    """The model's weights as the round protocol broadcasts them."""
    return FlatParams.from_module(model).pack()


class TestNCHWTransforms:
    def test_nchw_wrapper_round_trips_layout(self):
        transform = default_isp_transform(wb_degree=0.0, gamma_degree=0.0)
        batch = np.random.default_rng(0).random((2, 3, 4, 4))
        out = transform(batch, np.random.default_rng(0))
        np.testing.assert_allclose(out, batch)

    def test_nchw_wrapper_rejects_wrong_rank(self):
        transform = default_isp_transform()
        with pytest.raises(ValueError):
            transform(np.zeros((3, 4, 4)), np.random.default_rng(0))

    def test_active_transform_changes_batch(self):
        transform = default_isp_transform(wb_degree=0.5, gamma_degree=0.5)
        batch = np.random.default_rng(0).random((2, 3, 4, 4)) * 0.8 + 0.1
        out = transform(batch, np.random.default_rng(0))
        assert not np.allclose(out, batch)
        assert out.shape == batch.shape

    def test_signal_transform(self):
        transform = ecg_transform()
        signals = np.random.default_rng(0).normal(size=(3, 64))
        out = transform(signals, np.random.default_rng(0))
        assert out.shape == signals.shape

    def test_signal_transform_rejects_images(self):
        with pytest.raises(ValueError):
            ecg_transform()(np.zeros((2, 3, 4, 4)), np.random.default_rng(0))


class TestSwitchBehaviour:
    def test_no_ema_behaves_like_fedavg(self):
        """Before the first round, HeteroSwitch has no EMA and must not transform."""
        strategy = HeteroSwitch()
        model = make_model()
        spec = make_image_spec()
        context = make_context(ema_value=None)
        result = strategy.client_update(model, spec, packed(model), context)
        decision = result.metadata["switch"]
        assert decision.switch1 is False and decision.switch2 is False

    def test_high_ema_triggers_switch1(self):
        """If the EMA is far above the client's loss, the data is 'already learned'."""
        strategy = HeteroSwitch()
        model = make_model()
        spec = make_image_spec()
        context = make_context(ema_value=100.0)
        result = strategy.client_update(model, spec, packed(model), context)
        assert result.metadata["switch"].switch1 is True

    def test_low_ema_keeps_switches_off(self):
        strategy = HeteroSwitch()
        model = make_model()
        spec = make_image_spec()
        context = make_context(ema_value=1e-6)
        result = strategy.client_update(model, spec, packed(model), context)
        decision = result.metadata["switch"]
        assert decision.switch1 is False and decision.switch2 is False

    def test_switch2_returns_swad_average(self):
        """With a huge EMA both switches fire and the returned weights are the SWAD average,
        which differs from the weights a plain FedAvg update would return."""
        model = make_model()
        spec = make_image_spec(n=16)
        global_vec = packed(model)

        hetero = HeteroSwitch(transform=default_isp_transform(wb_degree=0.0, gamma_degree=0.0))
        hetero_result = hetero.client_update(model, spec, global_vec, make_context(100.0))
        assert hetero_result.metadata["switch"].switch2 is True

        from repro.fl.strategies.base import FedAvg

        fedavg_result = FedAvg().client_update(model, spec, global_vec, make_context(100.0))
        assert not np.allclose(hetero_result.vector, fedavg_result.vector)

    def test_records_device_in_metadata(self):
        strategy = HeteroSwitch()
        model = make_model()
        result = strategy.client_update(model, make_image_spec(), packed(model),
                                        make_context(1.0))
        assert result.metadata["device"] == "S6"


class TestAblations:
    def test_isp_transform_only_always_switch1_never_switch2(self):
        strategy = ISPTransformOnly()
        model = make_model()
        result = strategy.client_update(model, make_image_spec(), packed(model),
                                        make_context(None))
        decision = result.metadata["switch"]
        assert decision.switch1 is True and decision.switch2 is False

    def test_isp_swad_always_both(self):
        strategy = ISPTransformWithSWAD()
        model = make_model()
        result = strategy.client_update(model, make_image_spec(), packed(model),
                                        make_context(None))
        decision = result.metadata["switch"]
        assert decision.switch1 is True and decision.switch2 is True

    def test_custom_transform_used(self):
        calls = {"count": 0}

        class CountingTransform:
            def __call__(self, features, rng):
                calls["count"] += 1
                return features

        strategy = ISPTransformOnly(transform=CountingTransform())
        model = make_model()
        strategy.client_update(model, make_image_spec(), packed(model), make_context(None))
        assert calls["count"] > 0

    def test_heteroswitch_with_ecg_transform_on_signals(self):
        """The regression/ECG configuration runs end-to-end with the 1-D transform."""
        rng = np.random.default_rng(0)
        features = rng.normal(size=(12, 32))
        labels = rng.random((12, 1))
        spec = ClientSpec(client_id=0, device="wrist",
                          dataset=ArrayDataset(features, labels))
        config = FLConfig(num_clients=2, clients_per_round=1, num_rounds=1,
                          batch_size=4, learning_rate=0.05, task="regression", seed=0)
        context = FLContext(config=config, ema=EMALossTracker())
        context.ema.update(1e6)  # force the switches on
        model = SimpleMLP(32, 1, hidden=8, seed=0)
        strategy = HeteroSwitch(transform=ecg_transform())
        result = strategy.client_update(model, spec, packed(model), context)
        assert result.metadata["switch"].switch1 is True
        assert np.isfinite(result.train_loss)
