"""Tests for the npz checkpoint codec: exact round trips, atomicity, versioning."""

import json
import os

import numpy as np
import pytest
from oracle.states import states_equal

from repro.nn.layers import Linear, ReLU, Sequential
from repro.nn.models import MODEL_REGISTRY, create_model
from repro.store.checkpoint import (
    CHECKPOINT_FORMAT_VERSION,
    CheckpointError,
    CheckpointVersionError,
    read_checkpoint,
    write_checkpoint,
)

# Constructor kwargs producing the smallest sensible instance of each
# registered model (mirrors make_model_factory's dispatch).
_MODEL_KWARGS = {
    "simple_mlp": dict(input_dim=3 * 8 * 8, num_classes=3, seed=0),
    "linear": dict(input_dim=3 * 8 * 8, num_classes=3, seed=0),
    "simple_cnn": dict(num_classes=3, in_channels=3, image_size=8, seed=0),
    "multilabel_cnn": dict(num_labels=3, in_channels=3, image_size=8, seed=0),
    "ecg_regressor": dict(window_size=16, seed=0),
    "mobilenetv3_small": dict(num_classes=3, in_channels=3, width_mult=0.5, seed=0),
    "shufflenet_v2_x0_5": dict(num_classes=3, in_channels=3, width_mult=0.5, seed=0),
    "squeezenet1_1": dict(num_classes=3, in_channels=3, width_mult=0.5, seed=0),
}


def _mlp(seed):
    return Sequential(Linear(4, 8, rng=np.random.default_rng(seed)), ReLU(),
                      Linear(8, 2, rng=np.random.default_rng(seed + 1)))


def roundtrip(tmp_path, tree, extra_meta=None):
    path = tmp_path / "ckpt.npz"
    write_checkpoint(path, tree, extra_meta=extra_meta)
    return read_checkpoint(path)


class TestRoundTrip:
    def test_scalars_and_containers(self, tmp_path):
        tree = {
            "int": 3,
            "float": 0.1 + 0.2,
            "bool": True,
            "none": None,
            "string": "hello",
            "list": [1, 2.5, "x", None],
            "nested": {"a": {"b": [{"c": 1}]}},
        }
        loaded, _ = roundtrip(tmp_path, tree)
        assert loaded == tree

    def test_floats_round_trip_bit_exactly(self, tmp_path):
        values = [0.1, 1e-300, 1.7976931348623157e308, -0.0, 3.141592653589793]
        loaded, _ = roundtrip(tmp_path, {"values": values})
        assert [v.hex() if isinstance(v, float) else v for v in loaded["values"]] == \
            [v.hex() for v in values]

    def test_arrays_preserve_dtype_shape_and_bytes(self, tmp_path):
        tree = {
            "f64": np.random.default_rng(0).normal(size=(3, 4)),
            "f32": np.arange(6, dtype=np.float32).reshape(2, 3),
            "i64": np.array([[1, -2], [3, 4]], dtype=np.int64),
            "u8": np.arange(10, dtype=np.uint8),
            "empty": np.zeros((0, 5)),
            "noncontig": np.arange(16.0).reshape(4, 4)[:, ::2],
        }
        loaded, _ = roundtrip(tmp_path, tree)
        assert loaded.keys() == tree.keys()
        for key, value in tree.items():
            assert loaded[key].dtype == value.dtype
            assert loaded[key].shape == value.shape
            assert loaded[key].tobytes() == np.ascontiguousarray(value).tobytes()

    def test_nan_and_inf_arrays_survive(self, tmp_path):
        tree = {"w": np.array([np.nan, np.inf, -np.inf, -0.0])}
        loaded, _ = roundtrip(tmp_path, tree)
        assert loaded["w"].tobytes() == tree["w"].tobytes()

    def test_integer_dict_keys_survive(self, tmp_path):
        tree = {"client_storage": {0: {"c_i": np.ones(2)}, 7: {"c_i": np.zeros(2)}}}
        loaded, _ = roundtrip(tmp_path, tree)
        assert set(loaded["client_storage"]) == {0, 7}
        assert all(isinstance(key, int) for key in loaded["client_storage"])

    def test_numpy_scalars_round_trip_with_dtype(self, tmp_path):
        loaded, _ = roundtrip(tmp_path, {"x": np.float32(1.5), "n": np.int64(-3)})
        assert loaded["x"].dtype == np.float32 and float(loaded["x"]) == 1.5
        assert loaded["n"].dtype == np.int64 and int(loaded["n"]) == -3

    def test_every_registered_model_state_round_trips(self, tmp_path):
        """The full state (parameters + buffers) of every registered model
        keeps its key order, dtypes, shapes and bytes."""
        assert set(_MODEL_KWARGS) == set(MODEL_REGISTRY), \
            "update _MODEL_KWARGS when registering a new model"
        for name, kwargs in _MODEL_KWARGS.items():
            state = create_model(name, **kwargs).state_dict()
            loaded, _ = roundtrip(tmp_path, {"global_state": state})
            assert list(loaded["global_state"]) == list(state), name
            assert states_equal(state, loaded["global_state"]), name

    def test_loaded_state_drives_a_model(self, tmp_path):
        model, other = _mlp(0), _mlp(9)
        loaded, _ = roundtrip(tmp_path, {"global_state": model.state_dict()})
        other.load_state_dict(loaded["global_state"])
        assert states_equal(other.state_dict(), model.state_dict())

    def test_extra_meta_round_trips(self, tmp_path):
        _, meta = roundtrip(tmp_path, {"x": 1}, extra_meta={"round": 5})
        assert meta["round"] == 5
        assert meta["format_version"] == CHECKPOINT_FORMAT_VERSION
        assert meta["repro_version"]


class TestRejections:
    def test_unsupported_leaf_type_raises(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot checkpoint"):
            write_checkpoint(tmp_path / "x.npz", {"bad": object()})

    def test_non_scalar_dict_key_raises(self, tmp_path):
        with pytest.raises(CheckpointError, match="keys must be str or int"):
            write_checkpoint(tmp_path / "x.npz", {("a", 1): 2})

    @pytest.mark.parametrize("key", [True, 1.5, None])
    def test_bool_float_and_none_dict_keys_raise(self, tmp_path, key):
        with pytest.raises(CheckpointError, match="keys must be str or int"):
            write_checkpoint(tmp_path / "x.npz", {"state": {key: np.zeros(1)}})
        assert list(tmp_path.iterdir()) == []

    def test_not_a_checkpoint_raises(self, tmp_path):
        path = tmp_path / "plain.npz"
        np.savez(path, w=np.zeros(3))
        with pytest.raises(CheckpointError, match="not a repro checkpoint"):
            read_checkpoint(path)


class TestVersioning:
    def test_incompatible_format_version_refused(self, tmp_path):
        path = tmp_path / "old.npz"
        meta = {"format_version": CHECKPOINT_FORMAT_VERSION + 1,
                "repro_version": "9.9.9", "meta": {}, "state": {"__dict__": []}}
        blob = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        np.savez(path, **{"__checkpoint_meta__": blob})
        with pytest.raises(CheckpointVersionError) as excinfo:
            read_checkpoint(path)
        message = str(excinfo.value)
        assert "format version" in message and "9.9.9" in message


class TestAtomicity:
    def test_failed_write_leaves_no_temp_file(self, tmp_path):
        path = tmp_path / "ckpt.npz"
        with pytest.raises(CheckpointError):
            write_checkpoint(path, {"bad": object()})
        assert list(tmp_path.iterdir()) == []

    def test_overwrite_is_replace_not_truncate(self, tmp_path):
        path = tmp_path / "ckpt.npz"
        write_checkpoint(path, {"round": 1})
        write_checkpoint(path, {"round": 2})
        loaded, _ = read_checkpoint(path)
        assert loaded == {"round": 2}
        assert not [p for p in os.listdir(tmp_path) if ".tmp." in p]
