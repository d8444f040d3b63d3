"""Tests for the HeteroSwitch building blocks: EMA tracker, weight averagers, switches."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ema import EMALossTracker
from repro.core.swad import SWAAverager, SWADAverager, WeightAverager
from repro.core.switch import SwitchDecision, decide_switch1, decide_switch2
from repro.nn.models import SimpleMLP
from repro.nn.serialization import StateLayout


class TestEMALossTracker:
    def test_first_update_seeds_value(self):
        tracker = EMALossTracker(alpha=0.9)
        assert tracker.value is None
        tracker.update(2.0)
        assert tracker.value == pytest.approx(2.0)

    def test_eq1_formula(self):
        tracker = EMALossTracker(alpha=0.9)
        tracker.update(1.0)
        tracker.update(2.0)
        # L_EMA = 0.9 * 2.0 + 0.1 * 1.0
        assert tracker.value == pytest.approx(1.9)

    def test_history_grows(self):
        tracker = EMALossTracker()
        for i in range(5):
            tracker.update(float(i))
        assert len(tracker.history) == 5

    def test_reset(self):
        tracker = EMALossTracker()
        tracker.update(1.0)
        tracker.reset()
        assert tracker.value is None
        assert tracker.history == []

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            EMALossTracker(alpha=0.0)
        with pytest.raises(ValueError):
            EMALossTracker(alpha=1.5)

    def test_non_finite_rejected(self):
        tracker = EMALossTracker()
        with pytest.raises(ValueError):
            tracker.update(float("nan"))

    def test_update_from_clients_mean(self):
        tracker = EMALossTracker()
        tracker.update_from_clients([1.0, 3.0])
        assert tracker.value == pytest.approx(2.0)

    def test_update_from_clients_weighted(self):
        tracker = EMALossTracker()
        tracker.update_from_clients([1.0, 3.0], weights=[3.0, 1.0])
        assert tracker.value == pytest.approx(1.5)

    def test_update_from_clients_validation(self):
        tracker = EMALossTracker()
        with pytest.raises(ValueError):
            tracker.update_from_clients([])
        with pytest.raises(ValueError):
            tracker.update_from_clients([1.0], weights=[1.0, 2.0])
        with pytest.raises(ValueError):
            tracker.update_from_clients([1.0, 2.0], weights=[0.0, 0.0])

    @given(st.lists(st.floats(0.01, 100.0), min_size=1, max_size=30),
           st.floats(0.05, 1.0))
    @settings(max_examples=30, deadline=None)
    def test_ema_stays_within_observed_range(self, losses, alpha):
        tracker = EMALossTracker(alpha=alpha)
        for loss in losses:
            tracker.update(loss)
        assert min(losses) - 1e-9 <= tracker.value <= max(losses) + 1e-9

    def test_converges_to_constant_input(self):
        tracker = EMALossTracker(alpha=0.5)
        tracker.update(10.0)
        for _ in range(60):
            tracker.update(1.0)
        assert tracker.value == pytest.approx(1.0, abs=1e-6)


def unpack(model, vector):
    """The averaged vector as a state dict of ``model``'s keys and shapes."""
    return StateLayout(model.state_dict()).unpack(vector)


class TestWeightAverager:
    def test_single_update_is_identity(self):
        averager = WeightAverager()
        state = {"w": np.array([1.0, 2.0])}
        averager.update(state)
        np.testing.assert_allclose(averager.average(), [1.0, 2.0])

    def test_incremental_mean(self):
        averager = WeightAverager()
        for value in (0.0, 2.0, 4.0):
            averager.update({"w": np.array([value])})
        np.testing.assert_allclose(averager.average(), [2.0])
        assert averager.count == 3

    def test_average_before_update_raises(self):
        with pytest.raises(RuntimeError):
            WeightAverager().average()

    def test_mismatched_keys_raise(self):
        averager = WeightAverager()
        averager.update({"w": np.zeros(1)})
        with pytest.raises(KeyError):
            averager.update({"v": np.zeros(1)})

    def test_average_returns_copies(self):
        averager = WeightAverager()
        averager.update({"w": np.array([1.0])})
        avg = averager.average()
        avg[...] = 99.0
        np.testing.assert_allclose(averager.average(), [1.0])

    def test_reset(self):
        averager = WeightAverager()
        averager.update({"w": np.array([1.0])})
        averager.reset()
        assert averager.count == 0

    def test_update_from_model(self):
        model = SimpleMLP(4, 2, hidden=4, seed=0)
        averager = WeightAverager()
        averager.update_from_model(model)
        np.testing.assert_allclose(
            unpack(model, averager.average())["fc1.weight"], model.state_dict()["fc1.weight"]
        )

    def test_update_from_model_reads_rebound_parameters(self):
        """A parameter rebound after the arena was built is folded, not the stale copy."""
        model = SimpleMLP(4, 2, hidden=4, seed=0)
        averager = WeightAverager()
        averager.update_from_model(model)
        model.fc1.weight.data = model.fc1.weight.data + 2.0
        averager.update_from_model(model)
        np.testing.assert_allclose(
            unpack(model, averager.average())["fc1.weight"], model.state_dict()["fc1.weight"] - 1.0
        )

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=20))
    @settings(max_examples=30, deadline=None)
    def test_average_equals_arithmetic_mean(self, values):
        averager = WeightAverager()
        for value in values:
            averager.update({"w": np.array([value])})
        np.testing.assert_allclose(averager.average(), [np.mean(values)], atol=1e-9)


class TestSWADvsSWA:
    def test_swad_averages_every_batch(self):
        model = SimpleMLP(4, 2, hidden=4, seed=0)
        averager = SWADAverager()
        for batch in range(5):
            averager.on_batch_end(model, batch, 0)
        assert averager.count == 5

    def test_swa_averages_once_per_epoch(self):
        model = SimpleMLP(4, 2, hidden=4, seed=0)
        averager = SWAAverager(batches_per_epoch=4)
        for batch in range(8):  # two epochs worth of batches
            averager.on_batch_end(model, batch, batch // 4)
        assert averager.count == 2

    def test_swa_invalid_batches_per_epoch(self):
        with pytest.raises(ValueError):
            SWAAverager(batches_per_epoch=0)

    def test_swad_average_lies_between_iterates(self):
        averager = SWADAverager()
        model = SimpleMLP(4, 2, hidden=4, seed=0)
        first = model.state_dict()["fc1.weight"].copy()
        averager.update(model.state_dict())
        for p in model.parameters():
            p.data += 1.0
        averager.update_from_model(model)
        avg = unpack(model, averager.average())["fc1.weight"]
        assert (avg >= np.minimum(first, first + 1.0) - 1e-12).all()
        assert (avg <= np.maximum(first, first + 1.0) + 1e-12).all()


class TestSwitchLogic:
    def test_switch1_requires_ema(self):
        assert decide_switch1(0.5, None) is False

    def test_switch1_true_when_init_below_ema(self):
        assert decide_switch1(0.5, 1.0) is True

    def test_switch1_false_when_init_above_ema(self):
        assert decide_switch1(1.5, 1.0) is False

    def test_switch1_false_at_equality(self):
        assert decide_switch1(1.0, 1.0) is False

    def test_switch2_requires_switch1(self):
        assert decide_switch2(False, 0.1, 1.0) is False

    def test_switch2_requires_ema(self):
        assert decide_switch2(True, 0.1, None) is False

    def test_switch2_true_when_train_loss_below_ema(self):
        assert decide_switch2(True, 0.5, 1.0) is True

    def test_switch2_false_when_train_loss_above_ema(self):
        assert decide_switch2(True, 1.5, 1.0) is False

    def test_switch_decision_record(self):
        decision = SwitchDecision(switch1=True, switch2=False, init_loss=0.4,
                                  train_loss=0.6, ema_loss=0.5)
        assert decision.switch1 and not decision.switch2

    @given(st.floats(0.01, 10.0), st.floats(0.01, 10.0), st.floats(0.01, 10.0))
    @settings(max_examples=40, deadline=None)
    def test_switch2_implies_switch1(self, init_loss, train_loss, ema_loss):
        """Invariant of Algorithm 1: Switch 2 can only fire if Switch 1 fired."""
        switch1 = decide_switch1(init_loss, ema_loss)
        switch2 = decide_switch2(switch1, train_loss, ema_loss)
        assert not (switch2 and not switch1)
