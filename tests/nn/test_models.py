"""Tests for the model zoo: shapes, trainability, registry, determinism."""

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn.flat import FlatParams
from repro.nn.models import (
    MODEL_REGISTRY,
    ECGRegressor,
    LinearClassifier,
    MobileNetV3Small,
    MultiLabelCNN,
    ShuffleNetV2,
    SimpleCNN,
    SimpleMLP,
    SqueezeNet,
    create_model,
)
from repro.nn.optim import SGD
from repro.nn.tensor import Tensor


IMAGE_MODELS = [MobileNetV3Small, ShuffleNetV2, SqueezeNet]


class TestImageModels:
    @pytest.mark.parametrize("model_cls", IMAGE_MODELS)
    def test_output_shape(self, model_cls):
        model = model_cls(num_classes=7)
        out = model(Tensor(np.random.default_rng(0).normal(size=(2, 3, 32, 32))))
        assert out.shape == (2, 7)

    @pytest.mark.parametrize("model_cls", IMAGE_MODELS)
    def test_works_on_16px_input(self, model_cls):
        model = model_cls(num_classes=4)
        out = model(Tensor(np.random.default_rng(0).normal(size=(1, 3, 16, 16))))
        assert out.shape == (1, 4)

    @pytest.mark.parametrize("model_cls", IMAGE_MODELS)
    def test_deterministic_initialization(self, model_cls):
        a = model_cls(num_classes=5, seed=3)
        b = model_cls(num_classes=5, seed=3)
        for (name_a, pa), (name_b, pb) in zip(a.named_parameters(), b.named_parameters()):
            assert name_a == name_b
            np.testing.assert_allclose(pa.data, pb.data)

    @pytest.mark.parametrize("model_cls", IMAGE_MODELS)
    def test_different_seeds_differ(self, model_cls):
        a = model_cls(num_classes=5, seed=0)
        b = model_cls(num_classes=5, seed=1)
        diffs = [np.abs(pa.data - pb.data).max()
                 for pa, pb in zip(a.parameters(), b.parameters()) if pa.size > 1]
        assert max(diffs) > 0

    @pytest.mark.parametrize("model_cls", IMAGE_MODELS)
    def test_single_training_step_changes_weights(self, model_cls):
        model = model_cls(num_classes=3)
        before = {name: p.data.copy() for name, p in model.named_parameters()}
        x = Tensor(np.random.default_rng(0).normal(size=(4, 3, 16, 16)))
        loss = F.cross_entropy(model(x), np.array([0, 1, 2, 0]))
        loss.backward()
        SGD(FlatParams.from_module(model), lr=0.1).step()
        changed = any(not np.allclose(before[name], p.data)
                      for name, p in model.named_parameters())
        assert changed

    @pytest.mark.parametrize("model_cls", IMAGE_MODELS)
    def test_state_dict_round_trip(self, model_cls):
        src = model_cls(num_classes=4, seed=0)
        dst = model_cls(num_classes=4, seed=9)
        dst.load_state_dict(src.state_dict())
        x = Tensor(np.random.default_rng(1).normal(size=(1, 3, 16, 16)))
        src.eval(), dst.eval()
        np.testing.assert_allclose(src(x).data, dst(x).data, atol=1e-10)

    def test_mobilenet_width_mult(self):
        small = MobileNetV3Small(num_classes=4, width_mult=0.5)
        large = MobileNetV3Small(num_classes=4, width_mult=1.0)
        assert small.num_parameters() < large.num_parameters()

    def test_mobilenet_rejects_tiny_width(self):
        with pytest.raises(ValueError):
            MobileNetV3Small(width_mult=0.1)

    def test_squeezenet_has_no_batchnorm(self):
        from repro.nn.layers import BatchNorm2d

        model = SqueezeNet(num_classes=4)
        assert not any(isinstance(m, BatchNorm2d) for m in model.modules())

    def test_mobilenet_smaller_than_naive_cnn_param_budget(self):
        # Mobile-friendly models should stay small (well under 100k params here).
        assert MobileNetV3Small(num_classes=12).num_parameters() < 100_000


class TestAuxModels:
    def test_simple_cnn_shapes(self):
        model = SimpleCNN(num_classes=10, image_size=16)
        out = model(Tensor(np.zeros((3, 3, 16, 16))))
        assert out.shape == (3, 10)

    def test_simple_mlp_flattens_images(self):
        model = SimpleMLP(3 * 8 * 8, 5)
        out = model(Tensor(np.zeros((2, 3, 8, 8))))
        assert out.shape == (2, 5)

    def test_linear_classifier(self):
        model = LinearClassifier(12, 3)
        assert model(Tensor(np.zeros((4, 12)))).shape == (4, 3)

    def test_ecg_regressor_output(self):
        model = ECGRegressor(window_size=64)
        out = model(Tensor(np.zeros((5, 64))))
        assert out.shape == (5, 1)

    def test_multilabel_cnn_output(self):
        model = MultiLabelCNN(num_labels=6, image_size=16)
        out = model(Tensor(np.zeros((2, 3, 16, 16))))
        assert out.shape == (2, 6)

    def test_mlp_learns_separable_problem(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(64, 6))
        y = (x[:, 0] + x[:, 1] > 0).astype(int)
        model = SimpleMLP(6, 2, hidden=16, seed=0)
        opt = SGD(FlatParams.from_module(model), lr=0.5)
        for _ in range(60):
            loss = F.cross_entropy(model(Tensor(x)), y)
            opt.zero_grad()
            loss.backward()
            opt.step()
        preds = model(Tensor(x)).data.argmax(axis=1)
        assert (preds == y).mean() > 0.85


class TestRegistry:
    def test_all_registered_names_construct(self):
        for name in MODEL_REGISTRY:
            kwargs = {}
            if name in ("simple_mlp", "linear"):
                kwargs = {"input_dim": 12, "num_classes": 3}
            elif name == "ecg_regressor":
                kwargs = {"window_size": 32}
            elif name == "multilabel_cnn":
                kwargs = {"num_labels": 4, "image_size": 16}
            elif name == "simple_cnn":
                kwargs = {"num_classes": 4, "image_size": 16}
            else:
                kwargs = {"num_classes": 4}
            model = create_model(name, **kwargs)
            assert model.num_parameters() > 0

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError, match="unknown model"):
            create_model("resnet152")
