"""Tests for the autograd Tensor engine: forward values, gradient
accumulation, grad mode and graph lifetime.

Every op's gradient is checked against finite differences in
``test_gradients.py``.
"""

import gc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.tensor import Tensor, concatenate, no_grad


class TestTensorBasics:
    def test_construction_from_list(self):
        t = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert t.shape == (2, 2)
        assert t.dtype == np.float64

    def test_construction_casts_dtype(self):
        t = Tensor(np.array([1, 2, 3], dtype=np.int32))
        assert t.dtype == np.float64

    def test_requires_grad_default_false(self):
        assert not Tensor([1.0]).requires_grad

    def test_item_scalar(self):
        assert Tensor([3.5]).item() == pytest.approx(3.5)

    def test_detach_cuts_graph(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        d = (t * 2).detach()
        assert not d.requires_grad

    def test_copy_is_independent(self):
        t = Tensor([1.0, 2.0])
        c = t.copy()
        c.data[0] = 99.0
        assert t.data[0] == 1.0

    def test_len_and_size(self):
        t = Tensor(np.zeros((4, 3)))
        assert len(t) == 4
        assert t.size == 12

    def test_zero_grad(self):
        t = Tensor([1.0], requires_grad=True)
        (t * 2).sum().backward()
        assert t.grad is not None
        t.zero_grad()
        assert t.grad is None

    def test_backward_requires_scalar(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError):
            (t * 2).backward()


class TestArithmeticForward:
    def test_add(self):
        out = Tensor([1.0, 2.0]) + Tensor([3.0, 4.0])
        np.testing.assert_allclose(out.data, [4.0, 6.0])

    def test_add_scalar(self):
        out = Tensor([1.0, 2.0]) + 1.0
        np.testing.assert_allclose(out.data, [2.0, 3.0])

    def test_radd(self):
        out = 1.0 + Tensor([1.0])
        np.testing.assert_allclose(out.data, [2.0])

    def test_sub(self):
        out = Tensor([3.0]) - Tensor([1.0])
        np.testing.assert_allclose(out.data, [2.0])

    def test_mul(self):
        out = Tensor([2.0, 3.0]) * Tensor([4.0, 5.0])
        np.testing.assert_allclose(out.data, [8.0, 15.0])

    def test_neg(self):
        np.testing.assert_allclose((-Tensor([1.0, -2.0])).data, [-1.0, 2.0])

    def test_broadcast_add(self):
        out = Tensor(np.ones((2, 3))) + Tensor(np.ones((3,)))
        assert out.shape == (2, 3)
        np.testing.assert_allclose(out.data, 2.0)


class TestGradients:
    def test_reuse_of_tensor_accumulates(self):
        a = Tensor([2.0], requires_grad=True)
        ((a * a) + a).sum().backward()  # d/da (a^2 + a) = 2a + 1 = 5
        np.testing.assert_allclose(a.grad, [5.0])

    def test_grad_accumulates_across_backward_calls(self):
        a = Tensor([1.0], requires_grad=True)
        (a * 2).sum().backward()
        (a * 2).sum().backward()
        np.testing.assert_allclose(a.grad, [4.0])

    def test_broadcast_grad_sums_over_broadcast_dims(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.ones((3,)), requires_grad=True)
        (a * b).sum().backward()
        assert a.grad.shape == (2, 3)
        assert b.grad.shape == (3,)
        np.testing.assert_allclose(b.grad, [2.0, 2.0, 2.0])


class TestGraphControl:
    def test_no_grad_disables_graph(self):
        a = Tensor([1.0], requires_grad=True)
        with no_grad():
            out = a * 2
        assert not out.requires_grad
        assert out._backward is None

    def test_no_grad_restores_state(self):
        from repro.nn.tensor import is_grad_enabled

        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_non_requiring_parents_produce_detached_output(self):
        out = Tensor([1.0]) * Tensor([2.0])
        assert not out.requires_grad


class TestGraphLifetime:
    """A graph is acyclic and is released by the one backward() it supports."""

    def test_training_steps_leave_no_cyclic_garbage(self):
        from repro.fl.training import compute_loss
        from repro.nn.models import MobileNetV3Small
        from repro.nn.flat import FlatParams
        from repro.nn.optim import SGD

        model = MobileNetV3Small(num_classes=4)
        optimizer = SGD(FlatParams.from_module(model), lr=0.05, momentum=0.9)
        rng = np.random.default_rng(0)
        features = rng.normal(size=(4, 3, 16, 16))
        labels = np.array([0, 1, 2, 3])

        def step():
            optimizer.zero_grad()
            compute_loss(model, features, labels, "classification").backward()
            optimizer.step()

        step()  # first-call caches are not a step's garbage
        gc.collect()
        gc.disable()
        try:
            for _ in range(3):
                step()
            leaked = gc.collect()
        finally:
            gc.enable()
        assert leaked == 0

    def test_backward_releases_the_graph(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        hidden = (a * 3).exp()
        loss = hidden.sum()
        loss.backward()
        assert loss._parents == ()
        assert hidden._parents == ()
        # Leaves keep their (empty) links and stay leaves.
        assert a._backward is None
        np.testing.assert_allclose(a.grad, 3 * np.exp([3.0, 6.0]))

    def test_second_backward_raises(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        loss = (a * a).sum()
        loss.backward()
        with pytest.raises(RuntimeError, match="already freed"):
            loss.backward()

    def test_backward_through_released_shared_intermediate_raises(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        shared = a * 2
        shared.sum().backward()
        with pytest.raises(RuntimeError, match="already freed"):
            (shared * 3).sum().backward()


class TestConcatenate:
    def test_concatenate_forward(self):
        a, b = Tensor([1.0, 2.0]), Tensor([3.0])
        np.testing.assert_allclose(concatenate([a, b]).data, [1.0, 2.0, 3.0])

    def test_concatenate_grad(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0], requires_grad=True)
        (concatenate([a, b]) * Tensor([1.0, 2.0, 3.0])).sum().backward()
        np.testing.assert_allclose(a.grad, [1.0, 2.0])
        np.testing.assert_allclose(b.grad, [3.0])

    def test_concatenate_axis1(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.ones((2, 3)), requires_grad=True)
        out = concatenate([a, b], axis=1)
        assert out.shape == (2, 5)
        out.sum().backward()
        assert a.grad.shape == (2, 2)
        assert b.grad.shape == (2, 3)


class TestPropertyBased:
    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=20))
    @settings(max_examples=30, deadline=None)
    def test_add_matches_numpy(self, values):
        arr = np.asarray(values, dtype=np.float64)
        np.testing.assert_allclose((Tensor(arr) + Tensor(arr)).data, arr + arr)

    @given(st.lists(st.floats(-5, 5), min_size=1, max_size=20))
    @settings(max_examples=30, deadline=None)
    def test_sum_grad_is_ones(self, values):
        arr = np.asarray(values, dtype=np.float64)
        t = Tensor(arr, requires_grad=True)
        t.sum().backward()
        np.testing.assert_allclose(t.grad, np.ones_like(arr))

    @given(st.integers(1, 5), st.integers(1, 5))
    @settings(max_examples=20, deadline=None)
    def test_mul_grad_symmetry(self, rows, cols):
        rng = np.random.default_rng(rows * 10 + cols)
        a_data = rng.normal(size=(rows, cols))
        b_data = rng.normal(size=(rows, cols))
        a = Tensor(a_data, requires_grad=True)
        b = Tensor(b_data, requires_grad=True)
        (a * b).sum().backward()
        np.testing.assert_allclose(a.grad, b_data)
        np.testing.assert_allclose(b.grad, a_data)
