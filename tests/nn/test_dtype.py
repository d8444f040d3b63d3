"""Precision axis: engine dtype state, per-kernel float32 equivalence,
``states_allclose``, and dtype plumbing through config/spec/checkpoints.

float64 remains the bitwise golden path (every pre-existing test pins it);
float32 is the opt-in fast path validated here by tolerance against the
float64 result for each kernel, on the flat kernels and on the seed oracle.
"""

import json

import numpy as np
import pytest
from oracle import seed_engine
from oracle.states import states_allclose, states_equal

from repro.fl.config import FLConfig
from repro.nn import functional as F
from repro.nn.engine import (
    COMPUTE_DTYPES,
    current_dtype,
    current_dtype_name,
    dtype_mode,
    validate_dtype,
)
from repro.nn.flat import FlatParams
from repro.nn.layers import Linear, Module
from repro.nn.models import SimpleMLP
from repro.nn.serialization import StateLayout, StreamingAverager
from repro.nn.tensor import Tensor
from repro.runtime import RunSpec
from repro.store import spec_hash


class TestEngineDtypeState:
    def test_default_is_float64(self):
        assert current_dtype_name() == "float64"
        assert current_dtype() == np.float64

    def test_dtype_mode_switches_and_restores(self):
        with dtype_mode("float32"):
            assert current_dtype_name() == "float32"
            assert current_dtype() == np.float32
        assert current_dtype_name() == "float64"

    def test_dtype_mode_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with dtype_mode("float32"):
                raise RuntimeError("boom")
        assert current_dtype_name() == "float64"

    def test_dtype_modes_nest(self):
        with dtype_mode("float32"):
            with dtype_mode("float64"):
                assert current_dtype_name() == "float64"
            assert current_dtype_name() == "float32"

    def test_validate_dtype_rejects_unknown(self):
        for bad in ("float16", "f32", "double", ""):
            with pytest.raises(ValueError, match="dtype"):
                validate_dtype(bad)

    def test_compute_dtypes_enumerates_both(self):
        assert COMPUTE_DTYPES == ("float64", "float32")

    def test_tensor_defaults_to_engine_dtype(self):
        assert Tensor([1.0, 2.0]).data.dtype == np.float64
        with dtype_mode("float32"):
            assert Tensor([1.0, 2.0]).data.dtype == np.float32
            # Even float64 input arrays (e.g. dataset batches) are normalized
            # to the engine dtype, so a float32 model never sees mixed inputs.
            assert Tensor(np.zeros(3, dtype=np.float64)).data.dtype == np.float32

    def test_model_built_under_float32_is_float32(self):
        with dtype_mode("float32"):
            model = SimpleMLP(12, 3, hidden=8, seed=0)
            for param in model.parameters():
                assert param.data.dtype == np.float32
            for _name, buffer in model.named_buffers():
                assert buffer.dtype == np.float32

    def test_flat_arena_requires_matching_dtype(self):
        model = SimpleMLP(12, 3, hidden=8, seed=0)  # float64 parameters
        with dtype_mode("float32"):
            with pytest.raises(TypeError, match="compute dtype"):
                FlatParams.from_module(model)
        arena = FlatParams.from_module(SimpleMLP(12, 3, hidden=8, seed=0))
        assert arena.dtype == np.float64
        with dtype_mode("float32"):
            arena32 = FlatParams.from_module(SimpleMLP(12, 3, hidden=8, seed=0))
            assert arena32.dtype == np.float32
            assert arena32.vector.dtype == np.float32


def _kernel_cases():
    """(name, builder) pairs; builder(rng, dtype) -> (loss Tensor, inputs)."""

    def linear(rng, dt):
        x = Tensor(rng.normal(size=(4, 6)).astype(dt), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 6)).astype(dt), requires_grad=True)
        b = Tensor(rng.normal(size=3).astype(dt), requires_grad=True)
        return F.linear(x, w, b).sum(), [x, w, b]

    def conv(rng, dt):
        x = Tensor(rng.normal(size=(2, 3, 6, 6)).astype(dt), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 3, 3, 3)).astype(dt), requires_grad=True)
        return F.conv2d(x, w, stride=1, padding=1).sum(), [x, w]

    def depthwise(rng, dt):
        x = Tensor(rng.normal(size=(2, 3, 6, 6)).astype(dt), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 1, 3, 3)).astype(dt), requires_grad=True)
        return F.depthwise_conv2d(x, w, padding=1).sum(), [x, w]

    def bn_train(rng, dt):
        x = Tensor(rng.normal(size=(4, 3, 5, 5)).astype(dt), requires_grad=True)
        w = Tensor(np.ones(3, dtype=dt), requires_grad=True)
        b = Tensor(np.zeros(3, dtype=dt), requires_grad=True)
        out, _mean, _var = F.batch_norm_train(x, w, b, axes=(0, 2, 3),
                                              param_shape=(1, 3, 1, 1),
                                              eps=1e-5)
        return out.sum(), [x, w, b]

    def cross_entropy(rng, dt):
        logits = Tensor(rng.normal(size=(8, 5)).astype(dt), requires_grad=True)
        labels = np.array([0, 1, 2, 3, 4, 0, 1, 2])
        return F.cross_entropy(logits, labels), [logits]

    def hardswish(rng, dt):
        x = Tensor(rng.normal(size=(4, 7)).astype(dt), requires_grad=True)
        return F.hardswish(x).sum(), [x]

    def max_pool(rng, dt):
        x = Tensor(rng.normal(size=(2, 3, 6, 6)).astype(dt), requires_grad=True)
        return F.max_pool2d(x, 2).sum(), [x]

    def global_pool(rng, dt):
        x = Tensor(rng.normal(size=(2, 3, 6, 6)).astype(dt), requires_grad=True)
        return F.global_avg_pool2d(x).sum(), [x]

    return [
        pytest.param(fn, id=fn.__name__)
        for fn in (linear, conv, depthwise, bn_train, cross_entropy,
                   hardswish, max_pool, global_pool)
    ]


class TestKernelFloat32Equivalence:
    """Every kernel runs natively in float32 (no silent float64 temporaries
    leaking into outputs/gradients) and agrees with float64 to tolerance."""

    @pytest.mark.parametrize("engine", ["flat", "reference"])
    @pytest.mark.parametrize("builder", _kernel_cases())
    def test_kernel(self, builder, engine):
        def run(dtype_name):
            np_dtype = np.dtype(dtype_name)
            with seed_engine.engine(engine), dtype_mode(dtype_name):
                loss, inputs = builder(np.random.default_rng(0), np_dtype)
                loss.backward()
            return loss, inputs

        loss64, inputs64 = run("float64")
        loss32, inputs32 = run("float32")
        assert loss32.data.dtype == np.float32
        for tensor in inputs32:
            assert tensor.grad is not None
            assert tensor.grad.dtype == np.float32
        np.testing.assert_allclose(loss32.data, loss64.data,
                                   rtol=1e-4, atol=1e-5)
        for t32, t64 in zip(inputs32, inputs64):
            np.testing.assert_allclose(t32.grad, t64.grad,
                                       rtol=1e-3, atol=1e-4)


class TestAggregationDtype:
    def _states(self, dtype, n=4):
        rng = np.random.default_rng(7)
        return [{"w": rng.normal(size=(3, 2)).astype(dtype),
                 "b": rng.normal(size=4).astype(dtype)} for _ in range(n)]

    @staticmethod
    def _average(states, weights):
        layout = StateLayout(states[0])
        averager = StreamingAverager(len(states), weights)
        for state in states:
            averager.add(layout.pack(state))
        return layout.unpack(averager.finalize())

    @pytest.mark.parametrize("engine", ["flat", "reference"])
    def test_streaming_average_float32_accumulates_in_float64(self, engine):
        states32 = self._states(np.float32)
        states64 = [{k: v.astype(np.float64) for k, v in s.items()}
                    for s in states32]
        weights = [3.0, 1.0, 4.0, 1.0]
        with seed_engine.engine(engine):
            avg32 = self._average(states32, weights)
            avg64 = self._average(states64, weights)
        for key, value in avg32.items():
            assert value.dtype == np.float32
            # The float64 accumulator means the float32 result is the float64
            # average rounded once, not a drifting float32 running sum.
            np.testing.assert_array_equal(
                value, avg64[key].astype(np.float32))

    def test_streaming_averager_float32_matches_oracle(self):
        states = self._states(np.float32, n=5)
        weights = [2.0, 5.0, 1.0, 3.0, 4.0]
        with seed_engine.engine("reference"):
            expected = self._average(states, weights)
        streamed = self._average(states, weights)
        assert all(v.dtype == np.float32 for v in streamed.values())
        assert states_equal(streamed, expected)

    @pytest.mark.parametrize("engine", ["flat", "reference"])
    def test_streaming_averager_matches_materialized(self, engine):
        states = self._states(np.float32, n=5)
        weights = [2.0, 5.0, 1.0, 3.0, 4.0]
        normalized = np.asarray(weights) / np.sum(weights)
        materialized = {}
        for key in states[0]:
            total = np.zeros(states[0][key].shape, dtype=np.float64)
            for weight, state in zip(normalized, states):
                total += weight * state[key]
            materialized[key] = total.astype(np.float32)
        with seed_engine.engine(engine):
            streamed = self._average(states, weights)
        assert all(v.dtype == np.float32 for v in streamed.values())
        assert states_equal(streamed, materialized)

    def test_layout_dtype_follows_state(self):
        assert StateLayout(self._states(np.float32)[0]).dtype == np.float32
        assert StateLayout(self._states(np.float64)[0]).dtype == np.float64

    def test_pack_unpack_roundtrip_float32(self):
        state = self._states(np.float32)[0]
        layout = StateLayout(state)
        vector = layout.pack(state)
        assert vector.dtype == np.float32
        assert states_equal(layout.unpack(vector), state)


class TestStatesAllclose:
    def _state(self, jitter=0.0, dtype=np.float64):
        rng = np.random.default_rng(3)
        base = {"w": rng.normal(size=(4, 2)), "b": rng.normal(size=3)}
        return {k: (v + jitter).astype(dtype) for k, v in base.items()}

    def test_identical_states_pass(self):
        a = self._state()
        assert states_allclose(a, {k: v.copy() for k, v in a.items()})

    def test_within_tolerance_passes(self):
        assert states_allclose(self._state(), self._state(jitter=1e-9))

    def test_float32_vs_float64_comparison(self):
        a = self._state()
        b = {k: v.astype(np.float32) for k, v in a.items()}
        assert states_allclose(a, b, rtol=1e-5, atol=1e-6)

    def test_key_mismatch_raises_keyerror(self):
        a = self._state()
        b = dict(a)
        b["extra"] = np.zeros(2)
        with pytest.raises(KeyError):
            states_allclose(a, b)

    def test_shape_mismatch_raises_valueerror(self):
        a = self._state()
        b = {k: v.copy() for k, v in a.items()}
        b["b"] = np.zeros(7)
        with pytest.raises(ValueError, match="shape"):
            states_allclose(a, b)

    def test_failure_reports_max_ulp_per_key(self):
        a = self._state()
        b = {k: v.copy() for k, v in a.items()}
        b["w"] = b["w"] + 1.0
        with pytest.raises(AssertionError) as excinfo:
            states_allclose(a, b)
        message = str(excinfo.value)
        assert "'w'" in message
        assert "max ulp" in message
        assert "max abs err" in message

    def test_one_ulp_apart_within_default_tolerance(self):
        a = {"x": np.array([1.0, 2.0, 4.0])}
        b = {"x": np.nextafter(a["x"], np.inf)}
        assert states_allclose(a, b)


class TestConfigAndSpecDtype:
    def test_config_default_and_validation(self):
        assert FLConfig(num_clients=2, clients_per_round=1).dtype == "float64"
        config = FLConfig(num_clients=2, clients_per_round=1, dtype="float32")
        assert config.dtype == "float32"
        with pytest.raises(ValueError, match="dtype"):
            FLConfig(num_clients=2, clients_per_round=1, dtype="float16")

    def test_spec_json_roundtrip_preserves_dtype(self):
        spec = RunSpec(strategy="fedavg", scale="smoke",
                       config_overrides={"dtype": "float32"})
        restored = RunSpec.from_json(json.dumps(json.loads(spec.to_json())))
        assert restored.config_overrides["dtype"] == "float32"
        assert restored == spec

    def test_spec_hash_depends_on_dtype(self):
        base = RunSpec(strategy="fedavg", scale="smoke")
        fast = base.with_overrides(config_overrides={"dtype": "float32"})
        assert spec_hash(base) != spec_hash(fast)


class TestLayerDtype:
    def test_load_state_casts_to_model_dtype(self):
        with dtype_mode("float32"):
            model = Linear(4, 3)
        state64 = {key: value.astype(np.float64)
                   for key, value in model.state_dict().items()}
        model.load_state_dict(state64)
        for param in model.parameters():
            assert param.data.dtype == np.float32

    def test_buffers_registered_in_engine_dtype(self):
        class WithBuffer(Module):
            def __init__(self):
                super().__init__()
                self.register_buffer("running", [0.0, 1.0])

        assert WithBuffer()._buffers["running"].dtype == np.float64
        with dtype_mode("float32"):
            assert WithBuffer()._buffers["running"].dtype == np.float32
