"""One finite-difference check of every autograd primitive's backward.

Every ``Tensor`` operator and every kernel in ``F.__all__`` has a case below:
small random float64 leaves and a forward built from them.  The check seeds
``backward`` with a random upstream gradient ``u`` and compares each leaf's
gradient, at every coordinate, with the central difference of
``sum(forward() * u)``.  Ops that compose other ops are checked too, so each
backward is exercised alone and inside its usual compositions.
"""

import inspect

import numpy as np
import pytest
from test_functional import in_layout

from repro.nn import functional as F
from repro.nn import tensor as tensor_module
from repro.nn.tensor import Tensor, concatenate, no_grad

EPS = 1e-6


def check_gradients(forward, leaves, upstream):
    """Compare the autograd gradient of ``sum(forward() * upstream)`` w.r.t.
    each leaf with central differences over all of its coordinates.

    Coordinates are perturbed in place through their multi-index, so a leaf
    in any memory layout (a transposed view included) is checked.
    """
    forward().backward(upstream)

    def loss():
        with no_grad():
            return float(np.sum(forward().data * upstream))

    for position, leaf in enumerate(leaves):
        numerical = np.zeros(leaf.shape)
        for index in np.ndindex(*leaf.shape):
            original = leaf.data[index]
            leaf.data[index] = original + EPS
            f_plus = loss()
            leaf.data[index] = original - EPS
            f_minus = loss()
            leaf.data[index] = original
            numerical[index] = (f_plus - f_minus) / (2 * EPS)
        assert leaf.grad is not None, f"leaf {position} got no gradient"
        np.testing.assert_allclose(leaf.grad, numerical, rtol=1e-6, atol=1e-7,
                                   err_msg=f"leaf {position}")


def _present(*leaves):
    """The leaves that were made; an omitted bias is ``None``."""
    return [t for t in leaves if t is not None]


def _linear(with_bias):
    def case(leaf, rng):
        x, w = leaf(4, 5), leaf(3, 5)
        b = leaf(3) if with_bias else None
        return lambda: F.linear(x, w, b), _present(x, w, b)
    return case


def _batch_norm_train(layout):
    def case(leaf, rng):
        x, w, b = leaf(3, 2, 4, 4, scale=2.0), leaf(2), leaf(2)
        if layout:  # the memory order a conv leaves: NHWC (conv2d), CNHW (depthwise)
            x.data = in_layout(x.data, layout)
        return lambda: F.batch_norm_train(x, w, b, (0, 2, 3), (1, 2, 1, 1), 1e-5)[0], [x, w, b]
    return case


def _batch_norm_eval(leaf, rng):
    x, w, b = leaf(3, 2, 4, 4), leaf(2), leaf(2)
    mean, var = rng.normal(size=(1, 2, 1, 1)), rng.uniform(0.5, 2.0, size=(1, 2, 1, 1))
    return lambda: F.batch_norm_eval(x, w, b, mean, var, (1, 2, 1, 1), 1e-5), [x, w, b]


def _conv2d(batch, out_channels, in_channels, kernel, stride, padding, with_bias=True,
            layout=None):
    kh, kw = kernel if isinstance(kernel, tuple) else (kernel, kernel)

    def case(leaf, rng):
        x = leaf(batch, in_channels, 5, 5)
        if layout:  # a conv's input as the previous conv leaves it
            x.data = in_layout(x.data, layout)
        w = leaf(out_channels, in_channels, kh, kw)
        b = leaf(out_channels) if with_bias else None
        return lambda: F.conv2d(x, w, b, stride=stride, padding=padding), _present(x, w, b)
    return case


def _depthwise_conv2d(batch, stride, with_bias=True, layout=None):
    def case(leaf, rng):
        x = leaf(batch, 3, 5, 5)
        if layout:
            x.data = in_layout(x.data, layout)
        w, b = leaf(3, 1, 3, 3), leaf(3) if with_bias else None
        return lambda: F.depthwise_conv2d(x, w, b, stride=stride, padding=1), _present(x, w, b)
    return case


def _concatenate_three(leaf, rng):
    parts = [leaf(1, 3), leaf(2, 3), leaf(3, 3)]
    return lambda: concatenate(parts), parts


def _unary(op, *shape, scale=1.0, positive=False):
    def case(leaf, rng):
        x = leaf(*shape, scale=scale)
        if positive:
            x.data = np.abs(x.data) + 0.5
        return lambda: op(x), [x]
    return case


def _binary(op, shape_a, shape_b):
    def case(leaf, rng):
        a, b = leaf(*shape_a), leaf(*shape_b)
        return lambda: op(a, b), [a, b]
    return case


def _with_targets(loss, targets_of):
    def case(leaf, rng):
        x = leaf(5, 4, scale=2.0)
        targets = targets_of(rng)
        return lambda: loss(x, targets), [x]
    return case


# ``case(leaf, rng) -> (forward, leaves)``, keyed ``<primitive>`` or
# ``<primitive>-<variant>``.  Tensor operators are keyed by their method name.
CASES = {
    # Tensor operators
    "__add__": _binary(lambda a, b: a + b, (3, 4), (3, 4)),
    "__add__-broadcast": _binary(lambda a, b: a + b, (2, 3, 4), (3, 1)),
    "__radd__": _unary(lambda x: 2.0 + x, 3, 4),
    "__neg__": _unary(lambda x: -x, 3, 4),
    "__sub__": _binary(lambda a, b: a - b, (3, 4), (4,)),
    "__mul__": _binary(lambda a, b: a * b, (3, 4), (3, 4)),
    "__mul__-broadcast": _binary(lambda a, b: a * b, (2, 3, 4), (1, 4)),
    "__rmul__": _unary(lambda x: 3.0 * x, 3, 4),
    "sum": _unary(lambda x: x.sum(), 3, 4),
    "sum-axis": _unary(lambda x: x.sum(axis=1), 2, 3, 4),
    "sum-axes-keepdims": _unary(lambda x: x.sum(axis=(0, 2), keepdims=True), 2, 3, 4),
    "mean": _unary(lambda x: x.mean(axis=(2, 3)), 2, 3, 4, 2),
    "mean-all": _unary(lambda x: x.mean(), 3, 4),
    "reshape": _unary(lambda x: x.reshape(4, 6), 2, 3, 4),
    "transpose": _unary(lambda x: x.transpose(2, 0, 1), 2, 3, 4),
    "transpose-reversed": _unary(lambda x: x.transpose(), 3, 4),
    "exp": _unary(lambda x: x.exp(), 3, 4),
    "log": _unary(lambda x: x.log(), 3, 4, positive=True),
    "relu": _unary(lambda x: x.relu(), 3, 4),
    "relu-functional": _unary(F.relu, 3, 4),
    "clip": _unary(lambda x: x.clip(-0.5, 0.5), 4, 5),
    "concatenate": _binary(lambda a, b: concatenate([a, b], axis=1), (2, 2), (2, 3)),
    "concatenate-three": _concatenate_three,
    # functional kernels
    "linear": _linear(with_bias=True),
    "linear-no-bias": _linear(with_bias=False),
    "batch_norm_train": _batch_norm_train(None),
    "batch_norm_train-nhwc": _batch_norm_train("nhwc"),
    "batch_norm_train-cnhw": _batch_norm_train("cnhw"),
    "batch_norm_eval": _batch_norm_eval,
    "conv2d": _conv2d(2, 3, 2, kernel=3, stride=2, padding=1),
    "conv2d-pointwise": _conv2d(2, 3, 4, kernel=1, stride=1, padding=0),
    "conv2d-pointwise-cnhw": _conv2d(2, 3, 4, kernel=1, stride=1, padding=0, layout="cnhw"),
    "conv2d-batch1": _conv2d(1, 3, 2, kernel=3, stride=1, padding=1),
    "conv2d-no-bias": _conv2d(2, 3, 2, kernel=3, stride=1, padding=0, with_bias=False),
    "conv2d-rectangular": _conv2d(2, 3, 2, kernel=(3, 1), stride=(2, 1), padding=(1, 0)),
    "depthwise_conv2d": _depthwise_conv2d(2, stride=1),
    "depthwise_conv2d-batch1": _depthwise_conv2d(1, stride=2),
    "depthwise_conv2d-no-bias": _depthwise_conv2d(2, stride=2, with_bias=False),
    "depthwise_conv2d-nhwc": _depthwise_conv2d(2, stride=1, layout="nhwc"),
    "max_pool2d": _unary(lambda x: F.max_pool2d(x, 2), 2, 2, 4, 4),
    "max_pool2d-overlapping": _unary(lambda x: F.max_pool2d(x, 2, stride=1), 2, 2, 4, 4),
    "global_avg_pool2d": _unary(F.global_avg_pool2d, 2, 3, 4, 4),
    "relu6": _unary(F.relu6, 4, 5, scale=5.0),
    "hardswish": _unary(F.hardswish, 6, 5, scale=3.0),
    "hardsigmoid": _unary(F.hardsigmoid, 6, 5, scale=3.0),
    "cross_entropy": _with_targets(F.cross_entropy, lambda rng: rng.integers(0, 4, size=5)),
    "binary_cross_entropy_with_logits": _with_targets(
        F.binary_cross_entropy_with_logits, lambda rng: (rng.random((5, 4)) > 0.5).astype(float)),
    "mse_loss": _with_targets(F.mse_loss, lambda rng: rng.normal(size=(5, 4))),
    "flatten": _unary(F.flatten, 2, 3, 2, 2),
    "channel_shuffle": _unary(lambda x: F.channel_shuffle(x, 2), 2, 4, 2, 2),
}


def _tensor_primitives():
    """Every ``Tensor`` method and ``repro.nn.tensor`` function that records a node."""
    candidates = [(name, fn) for name, fn in vars(Tensor).items() if inspect.isfunction(fn)]
    candidates += [(name, fn) for name, fn in vars(tensor_module).items()
                   if inspect.isfunction(fn) and fn.__module__ == tensor_module.__name__]
    return {name for name, fn in candidates if "Tensor._make(" in inspect.getsource(fn)}


def test_cases_cover_every_primitive():
    """A new primitive without a gradient case fails here."""
    covered = {case.split("-")[0] for case in CASES}
    assert set(F.__all__) <= covered, sorted(set(F.__all__) - covered)
    assert _tensor_primitives() <= covered, sorted(_tensor_primitives() - covered)


@pytest.mark.parametrize("primitive", sorted(CASES))
def test_gradient_check(primitive):
    rng = np.random.default_rng(0)

    def leaf(*shape, scale=1.0):
        return Tensor(rng.normal(scale=scale, size=shape), requires_grad=True)

    forward, leaves = CASES[primitive](leaf, rng)
    upstream = rng.normal(size=forward().shape)
    check_gradients(forward, leaves, upstream)
