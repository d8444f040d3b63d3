"""Tests for functional ops: forward values of convolutions, pooling,
activations and losses, and the kernels against the seed oracle.

Every op's gradient is checked against finite differences in
``test_gradients.py``.
"""

import numpy as np
import pytest
from oracle import seed_engine

from repro.nn import functional as F
from repro.nn.tensor import Tensor


class TestConv2d:
    def test_identity_kernel_preserves_input(self):
        x = Tensor(np.random.default_rng(0).normal(size=(1, 1, 5, 5)))
        w = Tensor(np.array([[[[0, 0, 0], [0, 1, 0], [0, 0, 0]]]], dtype=float))
        out = F.conv2d(x, w, padding=1)
        np.testing.assert_allclose(out.data, x.data, atol=1e-12)

    def test_output_shape_stride_padding(self):
        x = Tensor(np.zeros((2, 3, 8, 8)))
        w = Tensor(np.zeros((4, 3, 3, 3)))
        assert F.conv2d(x, w, stride=2, padding=1).shape == (2, 4, 4, 4)
        assert F.conv2d(x, w, stride=1, padding=0).shape == (2, 4, 6, 6)

    def test_channel_mismatch_raises(self):
        x = Tensor(np.zeros((1, 2, 4, 4)))
        w = Tensor(np.zeros((1, 3, 3, 3)))
        with pytest.raises(ValueError):
            F.conv2d(x, w)

    def test_matches_naive_convolution(self):
        rng = np.random.default_rng(1)
        x_data = rng.normal(size=(1, 2, 5, 5))
        w_data = rng.normal(size=(3, 2, 3, 3))
        out = F.conv2d(Tensor(x_data), Tensor(w_data), padding=0).data
        # Naive reference.
        expected = np.zeros((1, 3, 3, 3))
        for oc in range(3):
            for i in range(3):
                for j in range(3):
                    expected[0, oc, i, j] = np.sum(
                        x_data[0, :, i : i + 3, j : j + 3] * w_data[oc]
                    )
        np.testing.assert_allclose(out, expected, atol=1e-10)

    def test_bias_added_per_channel(self):
        x = Tensor(np.zeros((1, 1, 3, 3)))
        w = Tensor(np.zeros((2, 1, 3, 3)))
        b = Tensor(np.array([1.0, -2.0]))
        out = F.conv2d(x, w, b, padding=1)
        np.testing.assert_allclose(out.data[0, 0], 1.0)
        np.testing.assert_allclose(out.data[0, 1], -2.0)


class TestDepthwiseConv2d:
    def test_output_shape(self):
        x = Tensor(np.zeros((2, 4, 8, 8)))
        w = Tensor(np.zeros((4, 1, 3, 3)))
        assert F.depthwise_conv2d(x, w, padding=1).shape == (2, 4, 8, 8)
        assert F.depthwise_conv2d(x, w, stride=2, padding=1).shape == (2, 4, 4, 4)

    def test_channels_independent(self):
        x_data = np.zeros((1, 2, 4, 4))
        x_data[0, 0] = 1.0  # only channel 0 has signal
        w = Tensor(np.ones((2, 1, 3, 3)))
        out = F.depthwise_conv2d(Tensor(x_data), w, padding=1)
        assert out.data[0, 1].max() == 0.0  # channel 1 untouched by channel 0
        assert out.data[0, 0].max() > 0.0

    def test_wrong_weight_shape_raises(self):
        x = Tensor(np.zeros((1, 2, 4, 4)))
        with pytest.raises(ValueError):
            F.depthwise_conv2d(x, Tensor(np.zeros((2, 2, 3, 3))))


class TestPooling:
    def test_max_pool_values(self):
        x_data = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        out = F.max_pool2d(Tensor(x_data), 2)
        np.testing.assert_allclose(out.data[0, 0], [[5, 7], [13, 15]])

    def test_max_pool_grad_goes_to_max_position(self):
        x = Tensor(np.arange(16, dtype=float).reshape(1, 1, 4, 4), requires_grad=True)
        F.max_pool2d(x, 2).sum().backward()
        expected = np.zeros((4, 4))
        expected[1, 1] = expected[1, 3] = expected[3, 1] = expected[3, 3] = 1.0
        np.testing.assert_allclose(x.grad[0, 0], expected)

    def test_global_avg_pool(self):
        x = Tensor(np.ones((2, 3, 4, 4)) * 5.0)
        out = F.global_avg_pool2d(x)
        assert out.shape == (2, 3)
        np.testing.assert_allclose(out.data, 5.0)


class TestActivations:
    def test_relu6_clips_high(self):
        out = F.relu6(Tensor([-1.0, 3.0, 10.0]))
        np.testing.assert_allclose(out.data, [0.0, 3.0, 6.0])

    def test_hardsigmoid_range(self):
        x = Tensor(np.linspace(-10, 10, 50))
        out = F.hardsigmoid(x).data
        assert out.min() >= 0.0 and out.max() <= 1.0
        assert F.hardsigmoid(Tensor([0.0])).data[0] == pytest.approx(0.5)

    def test_hardswish_zero_at_negative_saturation(self):
        np.testing.assert_allclose(F.hardswish(Tensor([-5.0])).data, [0.0])

    def test_channel_shuffle_permutes_channels(self):
        x_data = np.arange(4, dtype=float).reshape(1, 4, 1, 1) * np.ones((1, 4, 2, 2))
        out = F.channel_shuffle(Tensor(x_data), groups=2)
        assert out.shape == x_data.shape
        # After shuffling with 2 groups, channel order becomes [0, 2, 1, 3].
        np.testing.assert_allclose(out.data[0, :, 0, 0], [0.0, 2.0, 1.0, 3.0])

    def test_channel_shuffle_invalid_groups(self):
        with pytest.raises(ValueError):
            F.channel_shuffle(Tensor(np.zeros((1, 3, 2, 2))), groups=2)

    def test_flatten(self):
        out = F.flatten(Tensor(np.zeros((2, 3, 4, 4))))
        assert out.shape == (2, 48)


def in_layout(a, layout):
    """``a`` (NCHW) copied into the memory order ``layout``, e.g. ``"nhwc"``."""
    perm = ["nchw".index(axis) for axis in layout]
    return np.ascontiguousarray(a.transpose(perm)).transpose(np.argsort(perm))


def layout_of(a):
    """The memory order of a 4-D array, outermost axis first, e.g. ``"nhwc"``."""
    return "".join("nchw"[axis] for axis in np.argsort([-s for s in a.strides], kind="stable"))


# The batch-norm inputs of one Table 4 training step (MobileNetV3-small at
# the default scale, 24 px, batch 10) in model order, with the memory order
# the producing conv leaves them in.
TABLE4_BATCH_NORM_INPUTS = [
    ((10, 8, 12, 12), "nhwc"), ((10, 16, 12, 12), "nhwc"), ((10, 16, 12, 12), "cnhw"),
    ((10, 8, 12, 12), "nhwc"), ((10, 24, 12, 12), "nhwc"), ((10, 24, 6, 6), "cnhw"),
    ((10, 12, 6, 6), "nhwc"), ((10, 36, 6, 6), "nhwc"), ((10, 36, 6, 6), "cnhw"),
    ((10, 12, 6, 6), "nhwc"), ((10, 48, 6, 6), "nhwc"), ((10, 48, 3, 3), "cnhw"),
    ((10, 16, 3, 3), "nhwc"), ((10, 32, 3, 3), "nhwc"),
]


class TestBatchNormBackwardAtTable4Shapes:
    """Batch norm's textbook backward against the oracle's composed graph.

    The forward is bitwise the oracle's.  The gradients reassociate its
    sums; measured on x86-64 the worst element is 2.9 ulp of the largest
    gradient magnitude in both dtypes (6.5e-16 and 3.4e-7 relative).  The
    bound is 8 ulp of it.
    """

    ULPS = 8

    def test_inputs_are_the_table4_models(self, monkeypatch):
        from repro.eval.factories import make_model_factory
        from repro.eval.scale import get_scale

        seen = []
        kernel = F.batch_norm_train

        def recording(x, *args):
            seen.append((x.shape, layout_of(x.data)))
            return kernel(x, *args)

        monkeypatch.setattr(F, "batch_norm_train", recording)
        rng = np.random.default_rng(0)
        model = make_model_factory(get_scale("default"), 8, 24)()
        model(Tensor(rng.uniform(0.0, 1.0, size=(10, 3, 24, 24))))
        assert seen == TABLE4_BATCH_NORM_INPUTS

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize(
        "index", range(len(TABLE4_BATCH_NORM_INPUTS)),
        ids=[f"bn{i:02d}-{'x'.join(map(str, shape))}-{layout}"
             for i, (shape, layout) in enumerate(TABLE4_BATCH_NORM_INPUTS)])
    def test_matches_oracle_within_bound(self, index, dtype):
        from repro.nn.engine import dtype_mode
        from repro.nn.layers import Parameter

        shape, layout = TABLE4_BATCH_NORM_INPUTS[index]
        channels = shape[1]
        rng = np.random.default_rng(index)
        x_np = rng.normal(0.5, 2.0, size=shape).astype(dtype)
        w_np, b_np = rng.normal(size=channels), rng.normal(size=channels)
        upstream = rng.normal(size=shape).astype(dtype)
        results = []
        for kernel in (F.batch_norm_train, seed_engine.batch_norm_train):
            with dtype_mode(dtype):
                x = Tensor(in_layout(x_np, layout), requires_grad=True)
                w, b = Parameter(w_np.copy()), Parameter(b_np.copy())
                out, _, _ = kernel(x, w, b, (0, 2, 3), (1, channels, 1, 1), 1e-5)
                out.backward(upstream.copy())
                results.append((out.data, x.grad, w.grad, b.grad))
        flat, oracle = results
        assert flat[0].tobytes() == oracle[0].tobytes()
        for name, a, b in zip(("x", "weight", "bias"), flat[1:], oracle[1:]):
            assert a.dtype == np.dtype(dtype), name
            bound = self.ULPS * np.finfo(dtype).eps * float(np.max(np.abs(b)))
            np.testing.assert_allclose(a, b, rtol=0, atol=bound, err_msg=name)


class TestLosses:
    def test_cross_entropy_uniform_logits(self):
        logits = Tensor(np.zeros((2, 4)))
        loss = F.cross_entropy(logits, np.array([0, 1]))
        assert float(loss.data) == pytest.approx(np.log(4))

    def test_cross_entropy_perfect_prediction_near_zero(self):
        logits = np.full((1, 3), -100.0)
        logits[0, 2] = 100.0
        loss = F.cross_entropy(Tensor(logits), np.array([2]))
        assert float(loss.data) == pytest.approx(0.0, abs=1e-6)

    def test_bce_with_logits_matches_reference(self):
        logits = np.array([[0.5, -1.0], [2.0, 0.0]])
        targets = np.array([[1.0, 0.0], [0.0, 1.0]])
        loss = F.binary_cross_entropy_with_logits(Tensor(logits), targets)
        probs = 1 / (1 + np.exp(-logits))
        expected = -(targets * np.log(probs) + (1 - targets) * np.log(1 - probs)).mean()
        assert float(loss.data) == pytest.approx(expected, rel=1e-6)

    def test_mse_loss(self):
        pred = Tensor(np.array([[1.0], [3.0]]))
        loss = F.mse_loss(pred, np.array([[0.0], [0.0]]))
        assert float(loss.data) == pytest.approx(5.0)

    def test_mse_gradient(self):
        pred = Tensor(np.array([[2.0]]), requires_grad=True)
        F.mse_loss(pred, np.array([[0.0]])).backward()
        np.testing.assert_allclose(pred.grad, [[4.0]])


class TestEngineKernelEquivalence:
    """The fused kernels must match the seed oracle's operator-composed
    graphs bit-for-bit — forward values AND every gradient."""

    @staticmethod
    def _run_both(build):
        """Run `build()` on the flat kernels and on the oracle's; returns both results."""
        results = {}
        for mode in seed_engine.ENGINES:
            with seed_engine.engine(mode):
                results[mode] = build()
        return results["flat"], results["reference"]

    @staticmethod
    def _assert_bitwise(flat, reference):
        for index, (a, b) in enumerate(zip(flat, reference)):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), f"item {index}"

    def test_linear_fused_bitwise(self):
        rng = np.random.default_rng(0)
        x_np, w_np, b_np = (rng.normal(size=(7, 5)), rng.normal(size=(4, 5)),
                            rng.normal(size=4))
        upstream = rng.normal(size=(7, 4))

        def build():
            from repro.nn.layers import Parameter

            x = Tensor(x_np.copy(), requires_grad=True)
            w, b = Parameter(w_np.copy()), Parameter(b_np.copy())
            out = F.linear(x, w, b)
            out.backward(upstream.copy())
            return out.data, x.grad, w.grad, b.grad

        self._assert_bitwise(*self._run_both(build))

    @pytest.mark.parametrize("shape", [(5,), (2, 3, 5)])
    def test_linear_refuses_non_2d_input(self, shape):
        x = Tensor(np.zeros(shape))
        with pytest.raises(ValueError, match=rf"got shape \({shape[0]},"):
            F.linear(x, Tensor(np.zeros((4, 5))))

    def test_linear_without_bias_fused_bitwise(self):
        rng = np.random.default_rng(1)
        x_np, w_np = rng.normal(size=(3, 5)), rng.normal(size=(2, 5))

        def build():
            from repro.nn.layers import Parameter

            x = Tensor(x_np.copy(), requires_grad=True)
            w = Parameter(w_np.copy())
            out = F.linear(x, w, None)
            out.sum().backward()
            return out.data, x.grad, w.grad

        self._assert_bitwise(*self._run_both(build))

    def test_cross_entropy_fused_bitwise(self):
        rng = np.random.default_rng(2)
        logits_np = rng.normal(scale=5.0, size=(9, 6))
        targets = rng.integers(0, 6, size=9)

        def build():
            logits = Tensor(logits_np.copy(), requires_grad=True)
            loss = F.cross_entropy(logits, targets)
            loss.backward()
            return np.asarray(loss.data), logits.grad

        self._assert_bitwise(*self._run_both(build))

    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1), (2, 2)])
    def test_conv2d_bincount_col2im_bitwise(self, stride, padding):
        rng = np.random.default_rng(3)
        x_np = rng.normal(size=(3, 4, 8, 8))
        w_np = rng.normal(size=(5, 4, 3, 3))
        b_np = rng.normal(size=5)

        def build():
            from repro.nn.layers import Parameter

            x = Tensor(x_np.copy(), requires_grad=True)
            w, b = Parameter(w_np.copy()), Parameter(b_np.copy())
            out = F.conv2d(x, w, b, stride=stride, padding=padding)
            out.sum().backward()
            return out.data, x.grad, w.grad, b.grad

        self._assert_bitwise(*self._run_both(build))

    def test_depthwise_conv_bitwise(self):
        rng = np.random.default_rng(4)
        x_np = rng.normal(size=(2, 6, 10, 10))
        w_np = rng.normal(size=(6, 1, 3, 3))

        def build():
            from repro.nn.layers import Parameter

            x = Tensor(x_np.copy(), requires_grad=True)
            w = Parameter(w_np.copy())
            out = F.depthwise_conv2d(x, w, None, stride=2, padding=1)
            out.sum().backward()
            return out.data, x.grad, w.grad

        self._assert_bitwise(*self._run_both(build))

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("source", ["contiguous", "conv2d", "depthwise"])
    @pytest.mark.parametrize("stride,padding", [(1, 0), (2, 0), (1, 1)])
    def test_one_by_one_conv_layout_bitwise(self, stride, padding, source, dtype):
        """1x1 convs on the pointwise path (stride 1, no padding) and on the
        im2col path must match the reference in value and in memory layout.

        The conv's input is a C-contiguous tensor or a real conv output (NHWC
        memory order for conv2d, CNHW for depthwise), batch-normalized first:
        the input gradient flows back into batch-norm reductions, whose sums
        round differently when the same values arrive in another layout.  Both
        sides use the engine's batch norm, whose textbook backward is not the
        oracle's composed graph: batch norm is only the layout probe here.
        The 3x3 source conv's own input takes no gradient: under float32 the
        flat col2im sums overlapping taps in float64, the reference in float32.
        """
        from repro.nn.engine import dtype_mode
        from repro.nn.layers import Parameter

        batch_norm = F.batch_norm_train
        rng = np.random.default_rng(7)
        # Spatial axes of at least 8 so numpy's pairwise summation (not a
        # plain loop) runs when they are the contiguous ones.
        x_np = rng.normal(size=(3, 4, 10, 10))
        gamma_np, beta_np = rng.normal(size=4), rng.normal(size=4)
        w_np, b_np = rng.normal(size=(5, 4, 1, 1)), rng.normal(size=5)
        source_np = rng.normal(size=(4, 4, 3, 3) if source == "conv2d" else (4, 1, 3, 3))

        def build():
            with dtype_mode(dtype):
                x = Tensor(x_np.copy(), requires_grad=source == "contiguous")
                gamma, beta, w, b = (Parameter(a.copy()) for a in (gamma_np, beta_np, w_np, b_np))
                leaves = [gamma, beta, w, b]
                h = x
                if source == "contiguous":
                    leaves.append(x)
                else:
                    source_w = Parameter(source_np.copy())
                    leaves.append(source_w)
                    conv = F.conv2d if source == "conv2d" else F.depthwise_conv2d
                    h = conv(x, source_w, None, padding=1)
                h, _, _ = batch_norm(h, gamma, beta, (0, 2, 3), (1, 4, 1, 1), 1e-5)
                out = F.conv2d(h, w, b, stride=stride, padding=padding)
                upstream = np.random.default_rng(8).normal(size=out.shape).astype(dtype)
                out.backward(upstream)
                assert all(leaf.grad is not None for leaf in leaves)
                return (out.data,) + tuple(leaf.grad for leaf in leaves)

        flat, reference = self._run_both(build)
        assert flat[0].dtype == np.dtype(dtype)
        self._assert_bitwise(flat, reference)

    def test_conv_outputs_leave_the_grid_layouts(self):
        """The grid below lays its inputs out as the convolutions leave
        their outputs: channels-last from a pointwise conv, channel-major
        from a depthwise conv."""
        x = Tensor(np.random.default_rng(10).normal(size=(4, 3, 6, 6)))
        assert layout_of(F.conv2d(x, Tensor(np.ones((5, 3, 1, 1)))).data) == "nhwc"
        assert layout_of(F.depthwise_conv2d(x, Tensor(np.ones((3, 1, 3, 3))),
                                            padding=1).data) == "cnhw"

    @pytest.mark.parametrize("out_map", ["6x6", "1x1"])
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("batch", [1, 4, 10, 14, 32])
    @pytest.mark.parametrize("layout", ["nhwc", "cnhw"])
    @pytest.mark.parametrize("kernel", ["depthwise_conv2d", "conv2d"])
    def test_conv_layout_grid_bitwise(self, kernel, layout, batch, stride, dtype, out_map,
                                      monkeypatch):
        """Depthwise and 1x1 convs match the seed composition bitwise on
        every input layout a conv leaves, forward and every gradient.

        The engine gathers depthwise columns channel-major and reads a 1x1
        conv's pixels in place, so its matmul operands are views wherever
        the layout allows; each must still reach ``matmul`` in the
        C-contiguous layout einsum builds.  The transposed depthwise columns
        reshape to the weight gradient's ``(c, k, n*p)`` operand as a free,
        strided view, on which ``matmul`` rounds that gradient differently.
        A batch of one or a 1x1 output map takes ``_contract``'s einsum
        fallback.  With a 1x1 output map the seed gather's batch-fastest
        columns reach einsum's matmul uncopied, so there the reference reads
        the same columns C-contiguous, as ``np.take`` gathers them.  Under
        float32 the depthwise input takes no gradient: the engine's col2im
        sums overlapping taps in float64, the seed scatter in float32.
        """
        from repro.nn.engine import dtype_mode
        from repro.nn.layers import Parameter

        depthwise = kernel == "depthwise_conv2d"
        rng = np.random.default_rng(11)
        size = (6 if out_map == "6x6" else 1) * stride
        x_np = in_layout(rng.normal(size=(batch, 8, size, size)), layout)
        w_np = rng.normal(size=(8, 1, 3, 3) if depthwise else (12, 8, 1, 1))
        b_np = rng.normal(size=w_np.shape[0])
        x_grad = not (depthwise and dtype == "float32")
        if out_map == "1x1":
            seed_im2col = seed_engine._im2col

            def contiguous_im2col(*args):
                cols, *rest = seed_im2col(*args)
                return (np.ascontiguousarray(cols), *rest)

            monkeypatch.setattr(seed_engine, "_im2col", contiguous_im2col)

        def build():
            with dtype_mode(dtype):
                x = Tensor(x_np.astype(dtype), requires_grad=x_grad)
                w, b = Parameter(w_np.copy()), Parameter(b_np.copy())
                conv = getattr(F, kernel)
                out = conv(x, w, b, stride=stride, padding=1 if depthwise else 0)
                # Non-uniform, channels-last upstream gradient.
                upstream = in_layout(np.random.default_rng(12).normal(size=out.shape), "nhwc")
                out.backward(upstream.astype(dtype))
                return out.data, x.grad, w.grad, b.grad

        flat, reference = self._run_both(build)
        assert flat[0].shape[2:] == ((6, 6) if out_map == "6x6" else (1, 1))
        assert flat[0].dtype == np.dtype(dtype)
        assert (flat[1] is None) == (not x_grad)
        self._assert_bitwise(flat, reference)

    @pytest.mark.parametrize("kernel", ["conv2d", "depthwise_conv2d"])
    def test_input_without_grad_skips_input_gradient(self, kernel):
        """An input that takes no gradient gets none and costs no col2im
        scatter; the weight and bias gradients stay bitwise the same."""
        from repro.nn.layers import Parameter
        from repro.obs.profiling import profile_kernels

        rng = np.random.default_rng(9)
        x_np = rng.normal(size=(2, 3, 7, 7))
        w_shape = (4, 3, 3, 3) if kernel == "conv2d" else (3, 1, 3, 3)
        w_np, b_np = rng.normal(size=w_shape), rng.normal(size=w_shape[0])
        conv = getattr(F, kernel)

        def grads(requires_grad):
            x = Tensor(x_np.copy(), requires_grad=requires_grad)
            w, b = Parameter(w_np.copy()), Parameter(b_np.copy())
            with profile_kernels() as profiler:
                profiler.drain()
                conv(x, w, b, stride=2, padding=1).sum().backward()
                col2im_calls = profiler.drain().get("col2im", (0, 0.0))[0]
            return x.grad, col2im_calls, w.grad, b.grad

        x_grad, col2im_calls, w_grad, b_grad = grads(requires_grad=False)
        assert x_grad is None
        assert col2im_calls == 0
        x_grad_ref, col2im_calls_ref, w_grad_ref, b_grad_ref = grads(requires_grad=True)
        assert x_grad_ref is not None and col2im_calls_ref == 1
        assert w_grad.tobytes() == w_grad_ref.tobytes()
        assert b_grad.tobytes() == b_grad_ref.tobytes()

    def test_hardswish_fused_bitwise(self):
        rng = np.random.default_rng(5)
        x_np = rng.normal(scale=4.0, size=(16, 8))
        upstream = rng.normal(size=(16, 8))

        def build():
            x = Tensor(x_np.copy(), requires_grad=True)
            out = F.hardswish(x)
            out.backward(upstream.copy())
            return out.data, x.grad

        self._assert_bitwise(*self._run_both(build))

    def test_im2col_plan_is_cached_and_frozen(self):
        from repro.nn.functional import _im2col_plan

        plan_a = _im2col_plan((3, 8, 8), (3, 3), (1, 1), (1, 1))
        plan_b = _im2col_plan((3, 8, 8), (3, 3), (1, 1), (1, 1))
        assert plan_a[0] is plan_b[0]  # same cached arrays
        with pytest.raises(ValueError):
            plan_a[0][0] = 99  # read-only

    def test_reference_engine_is_default_off(self):
        """Outside an oracle scope every kernel is the engine's own."""
        for name in ("conv2d", "linear", "batch_norm_train", "batch_norm_eval",
                     "hardswish", "cross_entropy", "_im2col", "_col2im", "_contract"):
            assert getattr(F, name).__module__ == F.__name__, name

    def test_engine_mode_restores_previous(self):
        """The oracle scope rebinds the kernels and restores them on exit,
        also when the block raises."""
        from repro.nn.optim import SGD

        flat = (F.linear, F.conv2d, SGD.step)
        with pytest.raises(RuntimeError):
            with seed_engine.engine("reference"):
                assert (F.linear, F.conv2d, SGD.step) == \
                    (seed_engine.linear, seed_engine.conv2d, seed_engine.sgd_step)
                raise RuntimeError("boom")
        assert (F.linear, F.conv2d, SGD.step) == flat

    def test_engine_mode_rejects_unknown(self):
        with pytest.raises(ValueError):
            with seed_engine.engine("turbo"):
                pass

    def test_bce_gradients_still_flow(self):
        """Regression: removing the dead zeros/max/abs tensors must not
        change the BCE value or its gradient."""
        rng = np.random.default_rng(6)
        logits = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        targets = rng.integers(0, 2, size=(5, 3)).astype(float)
        loss = F.binary_cross_entropy_with_logits(logits, targets)
        loss.backward()
        assert logits.grad is not None
        # Stable formulation: matches the direct sigmoid-based gradient.
        probs = 1.0 / (1.0 + np.exp(-logits.data))
        np.testing.assert_allclose(logits.grad, (probs - targets) / logits.data.size,
                                   atol=1e-12)
