"""Tests for flattening, averaging and comparing weights (the FL weight-exchange layer)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle import seed_engine
from oracle.seed_engine import add_states, scale_state, subtract_states, zeros_like_state
from oracle.states import states_equal

from repro.nn.layers import Linear, Sequential, ReLU
from repro.nn.serialization import StateLayout, StreamingAverager, state_fingerprint

@pytest.fixture
def model():
    return Sequential(Linear(4, 8, rng=np.random.default_rng(0)), ReLU(),
                      Linear(8, 2, rng=np.random.default_rng(1)))


def average(states, weights=None):
    """The weighted average of ``states``: their :class:`StateLayout`-packed
    vectors folded by :class:`StreamingAverager`, unpacked again."""
    layout = StateLayout(states[0])
    averager = StreamingAverager(len(states), weights)
    for state in states:
        averager.add(layout.pack(state))
    return layout.unpack(averager.finalize())


def materialized_average(states, weights=None):
    """The seed reduction written out over the whole list: weights normalized
    up front, then a per-key float64 multiply-add, states outermost."""
    weights = np.full(len(states), 1.0 / len(states)) if weights is None else (
        np.asarray(weights, dtype=np.float64) / np.sum(weights, dtype=np.float64))
    result = {key: np.zeros_like(value, dtype=np.float64) for key, value in states[0].items()}
    for weight, state in zip(weights, states):
        for key in result:
            result[key] += weight * state[key]
    return {key: value.astype(states[0][key].dtype) for key, value in result.items()}


def copy_state(state):
    return {key: value.copy() for key, value in state.items()}


class TestModuleStateDict:
    def test_round_trip(self, model):
        state = model.state_dict()
        other = Sequential(Linear(4, 8, rng=np.random.default_rng(7)), ReLU(),
                           Linear(8, 2, rng=np.random.default_rng(8)))
        other.load_state_dict(state)
        for key, value in other.state_dict().items():
            np.testing.assert_allclose(value, state[key])

    def test_state_dict_returns_copies(self, model):
        state = model.state_dict()
        state["layer0.weight"][...] = 42.0
        assert not np.allclose(model.state_dict()["layer0.weight"], 42.0)


class TestStateLayoutRoundTrip:
    def test_round_trip(self, model):
        state = model.state_dict()
        layout = StateLayout(state)
        assert states_equal(layout.unpack(layout.pack(state)), state)

    def test_vector_length(self, model):
        state = model.state_dict()
        assert StateLayout(state).pack(state).size == sum(v.size for v in state.values())

    def test_length_mismatch_raises(self, model):
        with pytest.raises(ValueError, match="does not match layout size"):
            StateLayout(model.state_dict()).unpack(np.zeros(3))

    def test_empty_state(self):
        assert StateLayout({}).pack({}).size == 0


class TestStateArithmetic:
    def test_add_subtract_inverse(self, model):
        a = model.state_dict()
        b = scale_state(a, 0.5)
        layout = StateLayout(a)
        np.testing.assert_allclose(
            layout.pack(subtract_states(add_states(a, b), b)), layout.pack(a))

    def test_zeros_like(self, model):
        zeros = zeros_like_state(model.state_dict())
        assert all(np.all(value == 0) for value in zeros.values())

    def test_scale(self):
        state = {"w": np.array([2.0, 4.0])}
        np.testing.assert_allclose(scale_state(state, 0.5)["w"], [1.0, 2.0])

    def test_mismatched_keys_raise(self):
        with pytest.raises(KeyError):
            add_states({"a": np.zeros(2)}, {"b": np.zeros(2)})

    def test_oracle_state_norm(self):
        state = {"a": np.array([3.0]), "b": np.array([4.0])}
        assert seed_engine.state_norm(state) == pytest.approx(5.0)


class TestWeightedAverage:
    def test_uniform_average(self):
        states = [{"w": np.array([0.0])}, {"w": np.array([2.0])}]
        np.testing.assert_allclose(average(states)["w"], [1.0])

    def test_weighted_average(self):
        states = [{"w": np.array([0.0])}, {"w": np.array([10.0])}]
        np.testing.assert_allclose(average(states, [3, 1])["w"], [2.5])

    def test_weights_normalized(self):
        states = [{"w": np.array([1.0])}, {"w": np.array([3.0])}]
        np.testing.assert_allclose(
            average(states, [10, 10])["w"], average(states, [1, 1])["w"]
        )

    def test_single_state_identity(self):
        state = {"w": np.array([1.5, 2.5])}
        np.testing.assert_allclose(average([state])["w"], state["w"])

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            StreamingAverager(0)

    def test_bad_weights_length(self):
        with pytest.raises(ValueError):
            average([{"w": np.zeros(1)}], [1, 2])

    def test_zero_weights_rejected(self):
        with pytest.raises(ValueError):
            average([{"w": np.zeros(1)}, {"w": np.ones(1)}], [0, 0])

    def test_nan_weight_rejected(self):
        """Regression: NaN weights used to sail past the ``total <= 0`` check
        (``nan <= 0`` is False) and silently poison every averaged weight."""
        states = [{"w": np.zeros(1)}, {"w": np.ones(1)}]
        with pytest.raises(ValueError, match="finite"):
            average(states, [np.nan, 1.0])

    def test_infinite_weight_rejected(self):
        states = [{"w": np.zeros(1)}, {"w": np.ones(1)}]
        with pytest.raises(ValueError, match="finite"):
            average(states, [np.inf, 1.0])

    def test_negative_weight_rejected(self):
        """Regression: weights like [-1, 3] summed positive and passed the old
        guard, producing an 'average' outside the convex hull of the states."""
        states = [{"w": np.zeros(1)}, {"w": np.ones(1)}]
        with pytest.raises(ValueError, match="non-negative"):
            average(states, [-1.0, 3.0])

    @pytest.mark.parametrize("engine", ["flat", "reference"])
    def test_weight_validation_parity_across_engines(self, engine):
        """Both engines refuse the same bad weights with the same error type."""
        states = [{"w": np.zeros(1)}, {"w": np.ones(1)}]
        with seed_engine.engine(engine):
            for bad in ([np.nan, 1.0], [-1.0, 3.0], [0.0, 0.0], [1.0]):
                with pytest.raises(ValueError):
                    average(states, bad)

    @given(st.lists(st.floats(-100, 100), min_size=2, max_size=6))
    @settings(max_examples=30, deadline=None)
    def test_average_between_min_and_max(self, values):
        states = [{"w": np.array([v])} for v in values]
        avg = average(states)["w"][0]
        assert min(values) - 1e-9 <= avg <= max(values) + 1e-9

    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=5),
           st.floats(0.1, 5.0))
    @settings(max_examples=30, deadline=None)
    def test_average_of_identical_states_is_identity(self, values, weight):
        state = {"w": np.asarray(values)}
        avg = average([state, state, state], [weight, weight, weight])
        np.testing.assert_allclose(avg["w"], state["w"], atol=1e-9)


class TestStateLayoutValidation:
    def test_pack_rejects_same_size_wrong_shape(self):
        """Regression: pack() used to reshape(-1) blindly, so a transposed
        (same-size) array flattened in the wrong element order and silently
        corrupted the flat reduction."""
        layout = StateLayout({"w": np.zeros((2, 3))})
        with pytest.raises(ValueError, match="shape mismatch"):
            layout.pack({"w": np.zeros((3, 2))})

    def test_pack_accepts_recorded_shape(self):
        layout = StateLayout({"w": np.arange(6.0).reshape(2, 3)})
        vector = layout.pack({"w": np.arange(6.0).reshape(2, 3)})
        np.testing.assert_array_equal(vector, np.arange(6.0))

    @pytest.mark.parametrize("engine", ["flat", "reference"])
    def test_refusal_parity_with_reference(self, engine):
        """The flat fold and the oracle's refuse the same wrong-length
        vector — neither silently mis-reduces."""
        with seed_engine.engine(engine):
            averager = StreamingAverager(2)
            averager.add(np.zeros(6))
            with pytest.raises(ValueError, match="does not match"):
                averager.add(np.ones(5))


class TestStreamingAverager:
    def _states(self, count, size=5):
        rng = np.random.default_rng(42)
        return [{"w": rng.normal(size=size), "b": rng.normal(size=(2, 2))}
                for _ in range(count)]

    @pytest.mark.parametrize("engine", ["flat", "reference"])
    @pytest.mark.parametrize("weights", [None, [1, 2, 3, 4]])
    def test_bitwise_matches_materialized_average(self, engine, weights):
        states = self._states(4)
        with seed_engine.engine(engine):
            assert states_equal(average(states, weights),
                                materialized_average(states, weights))

    def test_too_many_states_rejected(self):
        averager = StreamingAverager(1)
        averager.add(np.zeros(2))
        with pytest.raises(ValueError):
            averager.add(np.zeros(2))

    def test_finalize_before_complete_rejected(self):
        averager = StreamingAverager(2)
        averager.add(np.zeros(2))
        with pytest.raises(ValueError, match="expected 2"):
            averager.finalize()

    def test_weight_validation_up_front(self):
        with pytest.raises(ValueError, match="finite"):
            StreamingAverager(2, [np.nan, 1.0])
        with pytest.raises(ValueError, match="non-negative"):
            StreamingAverager(2, [-1.0, 2.0])


class TestStateFingerprint:
    def test_equal_iff_states_equal(self, model):
        state = model.state_dict()
        assert state_fingerprint(state) == state_fingerprint(copy_state(state))
        nudged = copy_state(state)
        key = next(iter(nudged))
        nudged[key].flat[0] = np.nextafter(nudged[key].flat[0], np.inf)
        assert state_fingerprint(state) != state_fingerprint(nudged)

    def test_sensitive_to_shape_dtype_and_keys(self):
        base = {"w": np.zeros(4)}
        assert state_fingerprint(base) != state_fingerprint({"w": np.zeros((2, 2))})
        assert state_fingerprint(base) != state_fingerprint(
            {"w": np.zeros(4, dtype=np.float32)})
        assert state_fingerprint(base) != state_fingerprint({"v": np.zeros(4)})

    def test_key_order_irrelevant(self):
        a = {"a": np.ones(2), "b": np.zeros(2)}
        b = {"b": np.zeros(2), "a": np.ones(2)}
        assert state_fingerprint(a) == state_fingerprint(b)


class TestStatesEqual:
    def test_equal_states(self):
        a = {"w": np.array([1.0, 2.0]), "b": np.zeros(3)}
        assert states_equal(a, copy_state(a))

    def test_value_difference_detected(self):
        a = {"w": np.array([1.0])}
        assert not states_equal(a, {"w": np.array([np.nextafter(1.0, 2.0)])})
        assert not states_equal(a, {"w": np.array([1.0, 1.0])})
        assert not states_equal(a, {"v": np.array([1.0])})

    def test_bitwise_semantics(self):
        # Equal NaN payloads are bit-identical; +0.0 and -0.0 are not.
        assert states_equal({"w": np.array([np.nan])}, {"w": np.array([np.nan])})
        assert not states_equal({"w": np.array([0.0])}, {"w": np.array([-0.0])})

    def test_dtype_mismatch_detected(self):
        assert not states_equal({"w": np.zeros(2, dtype=np.float64)},
                                {"w": np.zeros(2, dtype=np.float32)})
