"""Tests for the contiguous flat-parameter arena (:mod:`repro.nn.flat`)."""

import numpy as np
import pytest
from oracle.states import states_equal

from repro.nn.flat import FlatParams
from repro.nn.layers import Linear, Parameter, Sequential
from repro.nn.models import SimpleMLP
from repro.nn.serialization import StateLayout
from repro.nn.tensor import Tensor


def small_model():
    return SimpleMLP(6, 3, hidden=4, seed=0)


class TestArenaConstruction:
    def test_params_become_views_with_same_values(self):
        model = small_model()
        before = {name: p.data.copy() for name, p in model.named_parameters()}
        arena = FlatParams.from_module(model)
        for name, param in model.named_parameters():
            assert param.data.base is arena.vector
            np.testing.assert_array_equal(param.data, before[name])

    def test_vector_is_contiguous_and_covers_all_params(self):
        model = small_model()
        arena = FlatParams.from_module(model)
        assert arena.vector.flags.c_contiguous
        assert arena.size == sum(p.size for p in model.parameters())

    def test_views_alias_the_vector(self):
        model = small_model()
        arena = FlatParams.from_module(model)
        arena.vector[:] = 7.0
        for param in model.parameters():
            assert (param.data == 7.0).all()

    def test_in_place_param_update_hits_vector(self):
        model = small_model()
        arena = FlatParams.from_module(model)
        first = model.parameters()[0]
        first.data -= first.data  # zero it in place
        assert (arena.vector[: first.size] == 0.0).all()

    def test_from_module_caches(self):
        model = small_model()
        assert FlatParams.from_module(model) is FlatParams.from_module(model)

    def test_from_module_rebuilds_after_rebinding(self):
        model = small_model()
        arena = FlatParams.from_module(model)
        model.fc1.weight.data = model.fc1.weight.data + 1.0
        rebuilt = FlatParams.from_module(model)
        assert rebuilt is not arena and rebuilt.is_valid()
        np.testing.assert_array_equal(rebuilt.vector[: model.fc1.weight.size],
                                      model.fc1.weight.data.ravel())

    def test_empty_params_rejected(self):
        with pytest.raises(ValueError):
            FlatParams([])

    def test_non_float64_rejected(self):
        param = Parameter(np.zeros(3))
        param.data = np.zeros(3, dtype=np.float32)
        with pytest.raises(TypeError):
            FlatParams([param])


class TestBareArena:
    def test_bare_params_get_their_own_arena(self):
        params = [Parameter(np.arange(3, dtype=float)), Parameter(np.ones((2, 2)))]
        arena = FlatParams(params)
        assert arena.size == 7 and arena.is_valid()
        np.testing.assert_array_equal(arena.vector[:3], [0, 1, 2])


class TestGatherGrad:
    def test_full_coverage(self):
        params = [Parameter(np.zeros(2)), Parameter(np.zeros((2, 2)))]
        arena = FlatParams(params)
        params[0].grad = np.array([1.0, 2.0])
        params[1].grad = np.arange(4.0).reshape(2, 2)
        np.testing.assert_array_equal(arena.gather_grad(), [1, 2, 0, 1, 2, 3])

    def test_partial_coverage_raises_naming_the_missing_parameter(self):
        params = [Parameter(np.zeros(2)), Parameter(np.zeros((1, 2)))]
        arena = FlatParams(params)
        params[0].grad = np.ones(2)
        with pytest.raises(ValueError, match=r"parameter 1 \(shape \(1, 2\)\) has no gradient"):
            arena.gather_grad()


def bn_model():
    from repro.nn.layers import BatchNorm1d

    return Sequential(Linear(4, 3, rng=np.random.default_rng(0)), BatchNorm1d(3))


class TestPackedBoundary:
    def test_pack_matches_module_state(self):
        """``pack`` is ``Module.state_dict`` packed by its layout: parameters,
        then buffers."""
        model = bn_model()
        state = model.state_dict()
        packed = FlatParams.from_module(model).pack()
        assert packed.tobytes() == StateLayout(state).pack(state).tobytes()

    def test_pack_is_detached(self):
        model = small_model()
        arena = FlatParams.from_module(model)
        packed = arena.pack()
        arena.vector[:] = -1.0
        assert not (packed == -1.0).all()

    def test_load_round_trip(self):
        model = bn_model()
        arena = FlatParams.from_module(model)
        state = {key: np.full_like(value, 0.5) for key, value in model.state_dict().items()}
        arena.load(StateLayout(state).pack(state))
        assert states_equal(model.state_dict(), state)

    def test_load_size_mismatch_raises(self):
        arena = FlatParams.from_module(bn_model())
        with pytest.raises(ValueError, match="do not fit"):
            arena.load(np.zeros(arena.pack().size - 1))

    def test_bare_arena_packs_parameters_only(self):
        arena = FlatParams([Parameter(np.arange(2.0))])
        np.testing.assert_array_equal(arena.pack(), [0.0, 1.0])

    def test_load_updates_buffers(self):
        model = bn_model()
        arena = FlatParams.from_module(model)
        state = model.state_dict()
        state["layer1.running_mean"] = np.array([1.0, 2.0, 3.0])
        arena.load(StateLayout(state).pack(state))
        np.testing.assert_array_equal(
            model.state_dict()["layer1.running_mean"], [1.0, 2.0, 3.0]
        )


class TestTrainingThroughArena:
    def test_forward_backward_identical_to_unflattened(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(5, 6))
        y = rng.integers(0, 3, size=5)
        from repro.nn import functional as F

        plain = small_model()
        flat = small_model()
        FlatParams.from_module(flat)
        for model in (plain, flat):
            loss = F.cross_entropy(model(Tensor(x)), y)
            loss.backward()
        for p_plain, p_flat in zip(plain.parameters(), flat.parameters()):
            assert p_plain.grad.tobytes() == p_flat.grad.tobytes()
