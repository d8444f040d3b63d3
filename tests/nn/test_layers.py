"""Tests for layer modules: registration, state dicts, batch norm, sequencing."""

import numpy as np
import pytest

from repro.nn.layers import (
    BatchNorm1d,
    BatchNorm2d,
    Conv2d,
    DepthwiseConv2d,
    Flatten,
    GlobalAvgPool2d,
    Identity,
    Linear,
    MaxPool2d,
    ReLU,
    Sequential,
)
from repro.nn.tensor import Tensor


class TestModuleRegistration:
    def test_parameters_discovered(self):
        layer = Linear(4, 3)
        names = [name for name, _ in layer.named_parameters()]
        assert set(names) == {"weight", "bias"}

    def test_nested_module_parameters(self):
        model = Sequential(Linear(4, 8), ReLU(), Linear(8, 2))
        names = [name for name, _ in model.named_parameters()]
        assert "layer0.weight" in names and "layer2.bias" in names
        assert len(model.parameters()) == 4

    def test_num_parameters(self):
        layer = Linear(4, 3)
        assert layer.num_parameters() == 4 * 3 + 3

    def test_no_bias(self):
        layer = Linear(4, 3, bias=False)
        assert len(layer.parameters()) == 1

    def test_train_eval_propagates(self):
        model = Sequential(Linear(2, 2), ReLU())
        model.eval()
        assert all(not m.training for m in model.modules())
        model.train()
        assert all(m.training for m in model.modules())

    def test_zero_grad_clears_all(self):
        model = Linear(3, 2)
        out = model(Tensor(np.ones((1, 3))))
        out.sum().backward()
        assert model.weight.grad is not None
        model.zero_grad()
        assert model.weight.grad is None

    def test_modules_iterates_all(self):
        model = Sequential(Linear(2, 2), ReLU())
        assert len(list(model.modules())) == 3  # Sequential + 2 children


class TestStateDict:
    def test_round_trip(self):
        src = Linear(5, 4, rng=np.random.default_rng(1))
        dst = Linear(5, 4, rng=np.random.default_rng(2))
        assert not np.allclose(src.weight.data, dst.weight.data)
        dst.load_state_dict(src.state_dict())
        np.testing.assert_allclose(src.weight.data, dst.weight.data)

    def test_state_dict_returns_copies(self):
        layer = Linear(3, 2)
        state = layer.state_dict()
        state["weight"][...] = 99.0
        assert not np.allclose(layer.weight.data, 99.0)

    def test_missing_key_raises(self):
        layer = Linear(3, 2)
        state = layer.state_dict()
        del state["bias"]
        with pytest.raises(KeyError):
            layer.load_state_dict(state)

    def test_shape_mismatch_raises(self):
        layer = Linear(3, 2)
        state = layer.state_dict()
        state["weight"] = np.zeros((5, 5))
        with pytest.raises(ValueError):
            layer.load_state_dict(state)

    def test_buffers_in_state_dict(self):
        bn = BatchNorm2d(4)
        state = bn.state_dict()
        assert "running_mean" in state and "running_var" in state

    def test_buffer_round_trip(self):
        bn_src = BatchNorm2d(2)
        bn_src(Tensor(np.random.default_rng(0).normal(size=(8, 2, 3, 3))))
        bn_dst = BatchNorm2d(2)
        bn_dst.load_state_dict(bn_src.state_dict())
        np.testing.assert_allclose(
            bn_dst.state_dict()["running_mean"], bn_src.state_dict()["running_mean"]
        )

    def test_nested_state_dict_keys(self):
        model = Sequential(Conv2d(3, 4, 3), BatchNorm2d(4))
        keys = set(model.state_dict())
        assert "layer0.weight" in keys
        assert "layer1.running_mean" in keys


class TestBatchNorm:
    def test_training_normalizes_batch(self):
        bn = BatchNorm2d(3)
        x = Tensor(np.random.default_rng(0).normal(5.0, 2.0, size=(16, 3, 4, 4)))
        out = bn(x).data
        assert abs(out.mean()) < 1e-6
        assert abs(out.std() - 1.0) < 0.05

    def test_running_stats_updated(self):
        bn = BatchNorm2d(2)
        before = bn.state_dict()["running_mean"].copy()
        bn(Tensor(np.ones((4, 2, 3, 3)) * 10.0))
        after = bn.state_dict()["running_mean"]
        assert not np.allclose(before, after)
        assert (after > 0).all()

    def test_eval_uses_running_stats(self):
        bn = BatchNorm2d(2)
        rng = np.random.default_rng(0)
        for _ in range(50):
            bn(Tensor(rng.normal(3.0, 1.0, size=(16, 2, 4, 4))))
        bn.eval()
        out = bn(Tensor(np.full((1, 2, 4, 4), 3.0))).data
        # An input equal to the long-run mean should normalize to ~0.
        assert np.abs(out).max() < 0.3

    def test_affine_parameters_trainable(self):
        bn = BatchNorm2d(2)
        x = Tensor(np.random.default_rng(0).normal(size=(4, 2, 3, 3)))
        bn(x).sum().backward()
        assert bn.weight.grad is not None
        assert bn.bias.grad is not None

    def test_batchnorm1d(self):
        bn = BatchNorm1d(5)
        out = bn(Tensor(np.random.default_rng(0).normal(2.0, 3.0, size=(32, 5)))).data
        assert abs(out.mean()) < 1e-6


class TestIndividualLayers:
    def test_linear_shapes(self):
        out = Linear(6, 4)(Tensor(np.zeros((3, 6))))
        assert out.shape == (3, 4)

    def test_conv_layer_shapes(self):
        out = Conv2d(3, 8, 3, stride=2, padding=1)(Tensor(np.zeros((2, 3, 8, 8))))
        assert out.shape == (2, 8, 4, 4)

    def test_depthwise_layer_shapes(self):
        out = DepthwiseConv2d(4, 3, padding=1)(Tensor(np.zeros((2, 4, 6, 6))))
        assert out.shape == (2, 4, 6, 6)

    def test_maxpool_layer(self):
        out = MaxPool2d(2)(Tensor(np.zeros((1, 2, 6, 6))))
        assert out.shape == (1, 2, 3, 3)

    def test_global_avg_pool_layer(self):
        out = GlobalAvgPool2d()(Tensor(np.zeros((2, 5, 4, 4))))
        assert out.shape == (2, 5)

    def test_flatten_layer(self):
        out = Flatten()(Tensor(np.zeros((2, 3, 2, 2))))
        assert out.shape == (2, 12)

    def test_identity(self):
        x = Tensor(np.arange(4, dtype=float))
        np.testing.assert_allclose(Identity()(x).data, x.data)

    def test_sequential_iteration_and_len(self):
        model = Sequential(Linear(2, 2), ReLU())
        assert len(model) == 2
        assert isinstance(list(model)[1], ReLU)

    def test_end_to_end_training_reduces_loss(self):
        """A small Sequential model should fit a separable toy problem."""
        from repro.nn import functional as F
        from repro.nn.flat import FlatParams
        from repro.nn.optim import SGD

        rng = np.random.default_rng(0)
        x = rng.normal(size=(32, 4))
        y = (x[:, 0] > 0).astype(int)
        model = Sequential(Linear(4, 8, rng=rng), ReLU(), Linear(8, 2, rng=rng))
        opt = SGD(FlatParams.from_module(model), lr=0.5)
        first_loss = None
        for _ in range(30):
            loss = F.cross_entropy(model(Tensor(x)), y)
            if first_loss is None:
                first_loss = float(loss.data)
            opt.zero_grad()
            loss.backward()
            opt.step()
        assert float(loss.data) < first_loss * 0.5


class TestBatchNormSinglePass:
    """Pins for the single-pass batch-norm forward.

    The training forward computes the batch statistics once (through the
    normalization path) and reuses them for the running-stat update.  The
    normalized output is bitwise-identical to the seed's two-pass version;
    the running stats see a ``sum * (1/count)`` mean instead of NumPy's
    ``sum / count`` — the same reduction reassociated, pinned here to within
    a few ulp of the np.mean/np.var formulation.
    """

    def test_running_stats_match_numpy_formulation_to_ulp(self):
        rng = np.random.default_rng(0)
        x = rng.normal(3.0, 2.0, size=(8, 5, 4, 4))
        bn = BatchNorm2d(5, momentum=1.0)  # running stats = batch stats
        bn(Tensor(x))
        np.testing.assert_allclose(
            bn.state_dict()["running_mean"], x.mean(axis=(0, 2, 3)), rtol=1e-14
        )
        np.testing.assert_allclose(
            bn.state_dict()["running_var"], x.var(axis=(0, 2, 3)), rtol=1e-13
        )

    def test_running_stats_are_the_graph_formulation_exactly(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(6, 3, 5, 5))
        bn = BatchNorm2d(3, momentum=1.0)
        bn(Tensor(x))
        count = x.shape[0] * x.shape[2] * x.shape[3]
        mean = x.sum(axis=(0, 2, 3), keepdims=True) * (1.0 / count)
        centered = x + (-mean)
        var = (centered * centered).sum(axis=(0, 2, 3), keepdims=True) * (1.0 / count)
        assert bn.state_dict()["running_mean"].tobytes() == mean.reshape(3).tobytes()
        assert bn.state_dict()["running_var"].tobytes() == var.reshape(3).tobytes()

    def test_normalized_output_bitwise_unchanged_vs_seed_graph(self):
        """The seed's normalization graph (independent of its running-stat
        pass) must produce the same bits as the single-pass forward."""
        rng = np.random.default_rng(2)
        x_np = rng.normal(1.0, 3.0, size=(8, 4, 3, 3))
        bn = BatchNorm2d(4)
        out = bn(Tensor(x_np)).data

        from oracle import seed_engine

        seed_out, _, _ = seed_engine.batch_norm_train(
            Tensor(x_np.copy()), bn.weight, bn.bias, (0, 2, 3), (1, 4, 1, 1), bn.eps)
        assert out.tobytes() == seed_out.data.tobytes()

    def test_train_and_eval_bitwise_across_engines(self):
        """The forward output, the running stats and the eval output are
        bitwise the oracle's.  The gradients come from the textbook backward,
        a reassociation of the composed graph's: measured on x86-64 at
        2.2e-16 on ``x.grad`` and 3.6e-15 (an ulp) on the weight and bias
        gradients."""
        from oracle import seed_engine

        rng = np.random.default_rng(3)
        x_np = rng.normal(2.0, 1.5, size=(6, 4, 4, 4))
        upstream = rng.normal(size=(6, 4, 4, 4))
        results = {}
        for mode in seed_engine.ENGINES:
            with seed_engine.engine(mode):
                bn = BatchNorm2d(4)
                x = Tensor(x_np.copy(), requires_grad=True)
                out = bn(x)
                out.backward(upstream.copy())
                state = bn.state_dict()
                bn.eval()
                eval_out = bn(Tensor(x_np.copy())).data
                results[mode] = (out.data, x.grad, bn.weight.grad, bn.bias.grad,
                                 state["running_mean"], state["running_var"], eval_out)
        flat, reference = results["flat"], results["reference"]
        for index in (0, 4, 5, 6):
            assert flat[index].tobytes() == reference[index].tobytes(), f"item {index}"
        for index, atol in ((1, 1e-15), (2, 1e-14), (3, 1e-14)):
            np.testing.assert_allclose(flat[index], reference[index], rtol=0, atol=atol,
                                       err_msg=f"item {index}")
