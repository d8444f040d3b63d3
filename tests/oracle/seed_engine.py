"""The seed training engine, kept as a test-only oracle for the flat engine.

``repro`` trains with one engine: single-node autograd kernels, convolution
contractions lowered to ``np.matmul``, a bincount col2im scatter, and
whole-vector optimizer, averaging and aggregation steps over flat arenas.
This module holds the seed compositions those kernels replaced:

* operator-composed ``linear``, ``batch_norm_train``, ``batch_norm_eval``,
  ``hardswish`` and ``cross_entropy`` graphs, each a chain of
  :class:`~repro.nn.tensor.Tensor` primitives with hand-written gradients
  (the seed ``matmul``, ``**``, indexing and ``log_softmax`` among them,
  kept here because no model uses them);
* ``conv2d`` without the pointwise shortcut and ``depthwise_conv2d``, over
  the seed im2col gather (per-call indices, ``np.pad``, fancy indexing),
  ``np.einsum`` contractions and the ``np.add.at`` col2im scatter;
* the per-parameter SGD step, the streaming average, the per-key SWAD mean
  and the dict-based q-FedAvg reduction, with the per-key state arithmetic
  (``add_states``, ``subtract_states``, ``scale_state``,
  ``zeros_like_state``) they are written in.

Weights cross the ``repro`` round protocol as packed
:class:`~repro.nn.serialization.StateLayout` vectors, so the dict-based
oracles convert only at their patched entry points: the SWAD mean packs its
average on ``average()``, and q-FedAvg unpacks the global and client vectors
through ``context.layout`` and packs its result.  The streaming average
receives keyless vectors; its seed form is the float64 fold over the
vector, clients outermost.

:func:`install` rebinds the ``repro`` names to these versions for the
duration of a ``monkeypatch`` scope: public kernels and every ``repro``
module alias of them, the gather and scatter helpers that the pooling
kernels call, and the optimizer, averager and strategy methods.  Worker
processes forked inside the scope (the ``shm`` pool) inherit the rebinding.
:func:`engine` selects flat or oracle by name for parametrized tests.

What the oracle pins: on inputs whose operands keep the same memory layout
under both gather kernels and that pass through no batch norm (every MLP,
every whole-run test fixture), the flat engine is bitwise equal to it.  Where
the layouts differ — the conv weight gradient at Table 4 shapes, and any conv
weight gradient on a 1x1 output map, where einsum's size-1 path reads the
seed gather's batch-fastest columns uncopied — the two contractions round
differently and only agree to about an ulp.  Batch norm's forward is
bitwise the composed graph's; its textbook backward reassociates the
composed gradient and agrees to a few ulp.  ``tests/nn/test_functional.py``
and ``tests/fl/test_train_engine.py`` pin both bounds.
"""

from __future__ import annotations

import contextlib
import sys
from typing import Dict, Iterator, Optional, Tuple

import numpy as np
import pytest

import repro.core.swad as swad
import repro.fl.strategies.qfedavg as qfedavg
import repro.nn.functional as F
import repro.nn.optim as optim
import repro.nn.serialization as serialization
from repro.nn.tensor import Tensor

ENGINES = ("flat", "reference")


# --------------------------------------------------------------------------- #
# Seed kernels
# --------------------------------------------------------------------------- #
def _im2col(x, kernel, stride, padding):
    """Seed im2col: indices rebuilt per call, ``np.pad``, fancy-index gather."""
    _, c, h, w = x.shape
    ph, pw = padding
    k, i, j, out_h, out_w = F._seed_im2col_indices((c, h, w), kernel, stride, padding)
    if ph or pw:
        x = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)), mode="constant")
    return x[:, k, i, j], (k, i, j), out_h, out_w


def _col2im(cols, x_shape, indices, padding):
    """Seed col2im scatter via ``np.add.at``."""
    n, c, h, w = x_shape
    ph, pw = padding
    k, i, j = indices[:3]
    x_padded = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=cols.dtype)
    np.add.at(x_padded, (slice(None), k, i, j), cols)
    if ph or pw:
        return x_padded[:, :, ph : ph + h, pw : pw + w]
    return x_padded


def _contract(equation, a, b):
    return np.einsum(equation, a, b, optimize=True)


def conv2d(x, weight, bias=None, stride=1, padding=0):
    """Seed convolution: every kernel shape goes through im2col."""
    stride = F._pair(stride)
    padding = F._pair(padding)
    n, c, h, w = x.shape
    oc, ic, kh, kw = weight.shape
    if ic != c:
        raise ValueError(f"conv2d channel mismatch: input has {c}, weight expects {ic}")
    cols, indices, out_h, out_w = _im2col(x.data, (kh, kw), stride, padding)
    w_flat = weight.data.reshape(oc, -1)
    out_data = _contract("of,nfp->nop", w_flat, cols).reshape(n, oc, out_h, out_w)
    if bias is not None:
        out_data = out_data + bias.data.reshape(1, oc, 1, 1)
    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(grad, out):
        grad_flat = grad.reshape(n, oc, out_h * out_w)
        out._send(weight, _contract("nop,nfp->of", grad_flat, cols).reshape(weight.shape))
        if x.requires_grad:
            grad_cols = _contract("of,nop->nfp", w_flat, grad_flat)
            out._send(x, _col2im(grad_cols, x.shape, indices, padding))
        if bias is not None:
            out._send(bias, grad.sum(axis=(0, 2, 3)))

    return Tensor._make(out_data, parents, backward)


def depthwise_conv2d(x, weight, bias=None, stride=1, padding=0):
    """Seed depthwise convolution: the im2col gather and three einsum contractions."""
    stride = F._pair(stride)
    padding = F._pair(padding)
    n, c, h, w = x.shape
    wc, one, kh, kw = weight.shape
    if wc != c or one != 1:
        raise ValueError("depthwise_conv2d expects weight of shape (C, 1, kh, kw)")
    cols, indices, out_h, out_w = _im2col(x.data, (kh, kw), stride, padding)
    cols = cols.reshape(n, c, kh * kw, out_h * out_w)
    w_flat = weight.data.reshape(c, kh * kw)
    out_data = _contract("ck,nckp->ncp", w_flat, cols).reshape(n, c, out_h, out_w)
    if bias is not None:
        out_data = out_data + bias.data.reshape(1, c, 1, 1)
    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(grad, out):
        grad_flat = grad.reshape(n, c, out_h * out_w)
        out._send(weight, _contract("ncp,nckp->ck", grad_flat, cols).reshape(weight.shape))
        if x.requires_grad:
            grad_cols = _contract("ck,ncp->nckp", w_flat, grad_flat)
            grad_cols = grad_cols.reshape(n, c * kh * kw, out_h * out_w)
            out._send(x, _col2im(grad_cols, x.shape, indices, padding))
        if bias is not None:
            out._send(bias, grad.sum(axis=(0, 2, 3)))

    return Tensor._make(out_data, parents, backward)


# Seed operators that the compositions below use and no model does, so the
# engine does not carry them.
def _matmul(a, b):
    """Seed ``Tensor.matmul`` (``a @ b``) on 2-D operands."""
    out_data = a.data @ b.data

    def backward(grad, out):
        out._send(a, grad @ b.data.T)
        out._send(b, a.data.T @ grad)

    return Tensor._make(out_data, (a, b), backward)


def _pow(x, exponent):
    """Seed ``Tensor.__pow__`` (``x ** exponent``)."""
    out_data = x.data ** exponent

    def backward(grad, out):
        out._send(x, grad * exponent * x.data ** (exponent - 1))

    return Tensor._make(out_data, (x,), backward)


def _getitem(x, index):
    """Seed ``Tensor.__getitem__`` (``x[index]``)."""
    out_data = x.data[index]

    def backward(grad, out):
        full = np.zeros_like(x.data)
        np.add.at(full, index, grad)
        out._send(x, full)

    return Tensor._make(out_data, (x,), backward)


def _log_softmax(x, axis=-1):
    """Seed ``F.log_softmax``."""
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    exp = shifted.exp()
    return shifted - exp.sum(axis=axis, keepdims=True).log()


def linear(x, weight, bias=None):
    """Operator-composed affine transform: three graph nodes."""
    out = _matmul(x, weight.transpose())
    if bias is not None:
        out = out + bias
    return out


def batch_norm_train(x, weight, bias, axes, param_shape, eps):
    """Operator-composed training batch norm (~12 graph nodes per call)."""
    mean = x.mean(axis=axes, keepdims=True)
    centered = x - mean
    var = (centered * centered).mean(axis=axes, keepdims=True)
    inv_std = _pow(var + eps, -0.5)
    normalized = centered * inv_std
    out = normalized * weight.reshape(*param_shape) + bias.reshape(*param_shape)
    return out, mean.data, var.data


def batch_norm_eval(x, weight, bias, mean, var, param_shape, eps):
    normalized = (x - Tensor(mean)) * Tensor(1.0 / np.sqrt(var + eps))
    return normalized * weight.reshape(*param_shape) + bias.reshape(*param_shape)


def hardswish(x):
    return x * F.hardsigmoid(x)


def cross_entropy(logits, targets):
    """Operator-composed cross-entropy: ~10 graph nodes."""
    targets = np.asarray(targets)
    n = logits.shape[0]
    log_probs = _log_softmax(logits, axis=-1)
    picked = _getitem(log_probs, (np.arange(n), targets))
    return -picked.mean()


# --------------------------------------------------------------------------- #
# Seed optimizer, averagers and q-FedAvg reduction
# --------------------------------------------------------------------------- #
def sgd_step(self) -> None:
    """Seed per-parameter SGD step; momentum is keyed by parameter index.

    Parameters without a gradient are skipped.  On a :class:`ProximalSGD`
    the FedProx term ``mu * (w - w_global)`` joins each gradient before
    weight decay, read from the reference segment at the parameter's arena
    offset.
    """
    velocities: Dict[int, np.ndarray] = self.__dict__.setdefault("_seed_velocity", {})
    mu = getattr(self, "mu", 0.0)
    reference = getattr(self, "_reference", None)
    for index, param in enumerate(self.arena.params):
        if param.grad is None:
            continue
        grad = param.grad
        if mu and reference is not None:
            offset = self.arena.offsets[index]
            segment = reference[offset : offset + param.data.size]
            grad = grad + mu * (param.data - segment.reshape(param.data.shape))
        if self.weight_decay:
            grad = grad + self.weight_decay * param.data
        if self.momentum:
            velocity = velocities.get(index)
            if velocity is None:
                velocity = np.zeros_like(param.data)
            velocity = self.momentum * velocity + grad
            velocities[index] = velocity
            update = velocity
        else:
            update = grad
        param.data -= self.lr * update


def streaming_add(self, vector) -> None:
    """Seed streaming average: float64 accumulation, clients outermost."""
    if self._index >= self._count:
        raise ValueError(f"received more states than the declared {self._count}")
    weight = self._weights[self._index]
    result = self.__dict__.get("_seed_result")
    if result is None:
        result = self._seed_result = np.zeros(vector.shape, dtype=np.float64)
        self._seed_dtype = vector.dtype
    if vector.shape != result.shape:
        raise ValueError(f"vector of shape {vector.shape} does not match the "
                         f"averaged shape {result.shape}")
    result += weight * vector
    self._index += 1


def streaming_finalize(self):
    if self._index != self._count:
        raise ValueError(f"expected {self._count} states, received {self._index}")
    return self._seed_result.astype(self._seed_dtype, copy=False)


def _check_keys(a, b) -> None:
    if a.keys() != b.keys():
        missing = set(a).symmetric_difference(b)
        raise KeyError(f"state dicts have mismatched keys: {sorted(missing)[:5]}")


def zeros_like_state(state):
    """A state dict of zeros with the same structure."""
    return {key: np.zeros_like(value) for key, value in state.items()}


def add_states(a, b):
    """Elementwise sum of two state dicts."""
    _check_keys(a, b)
    return {key: a[key] + b[key] for key in a}


def subtract_states(a, b):
    """Elementwise difference ``a - b``."""
    _check_keys(a, b)
    return {key: a[key] - b[key] for key in a}


def scale_state(state, factor: float):
    """Multiply every entry by ``factor``."""
    return {key: value * factor for key, value in state.items()}


def swad_update(self, state) -> None:
    """Seed per-key incremental mean ``(avg * k + w) / (k + 1)``."""
    average: Optional[dict] = self.__dict__.get("_seed_average")
    if average is None:
        self._seed_average = {key: value.copy() for key, value in state.items()}
        self._count = 1
        return
    _check_keys(state, average)
    k = self._count
    for key, value in state.items():
        average[key] = (average[key] * k + value) / (k + 1)
    self._count += 1


def swad_update_from_model(self, model) -> None:
    self.update(model.state_dict())


def swad_average(self):
    """The per-key average, packed in its (``state_dict``) key order."""
    average = self.__dict__.get("_seed_average")
    if average is None:
        raise RuntimeError("no states have been averaged yet")
    return serialization.StateLayout(average).pack(average)


def swad_reset(self) -> None:
    self._seed_average = None
    self._count = 0


def state_norm(state) -> float:
    """L2 norm of the flattened state (q-FedAvg's Lipschitz estimate).

    Squares and sums in float64 whatever the state's compute dtype (a no-op
    for the float64 golden path), following the accumulate-in-float64 rule.
    """
    return float(np.sqrt(sum(
        float(np.sum(np.asarray(value, dtype=np.float64) ** 2))
        for value in state.values()
    )))


def qfedavg_reduce(self, global_vec, ordered, context):
    """Seed dict-based q-FFL server update over results in selection order."""
    layout = context.layout
    global_state = layout.unpack(global_vec)
    lipschitz = 1.0 / context.config.learning_rate
    weighted_delta_sum = zeros_like_state(global_state)
    h_sum = 0.0
    consumed = []
    for result in ordered:
        delta = scale_state(subtract_states(global_state, layout.unpack(result.vector)),
                            lipschitz)
        result.vector = None
        consumed.append(result)
        loss = max(result.init_loss, 1e-10)
        loss_pow_q = loss ** self.q
        delta_norm_sq = state_norm(delta) ** 2
        h_k = self.q * (loss ** (self.q - 1.0)) * delta_norm_sq + lipschitz * loss_pow_q
        weighted_delta_sum = add_states(weighted_delta_sum, scale_state(delta, loss_pow_q))
        h_sum += h_k
    if h_sum <= 0:
        raise RuntimeError("q-FedAvg aggregation produced a non-positive normalizer")
    update = scale_state(weighted_delta_sum, 1.0 / h_sum)
    return layout.pack(subtract_states(global_state, update)), consumed


# --------------------------------------------------------------------------- #
# Installation
# --------------------------------------------------------------------------- #
_KERNELS = ("conv2d", "depthwise_conv2d", "linear", "batch_norm_train",
            "batch_norm_eval", "hardswish", "cross_entropy")
_HELPERS = ("_im2col", "_col2im")
_METHODS: Tuple[Tuple[type, str, object], ...] = (
    (optim.SGD, "step", sgd_step),
    (serialization.StreamingAverager, "add", streaming_add),
    (serialization.StreamingAverager, "finalize", streaming_finalize),
    (swad.WeightAverager, "update", swad_update),
    (swad.WeightAverager, "update_from_model", swad_update_from_model),
    (swad.WeightAverager, "average", swad_average),
    (swad.WeightAverager, "reset", swad_reset),
    (qfedavg.QFedAvg, "_reduce", qfedavg_reduce),
)


def _replace_everywhere(monkeypatch, owner, attr: str, replacement) -> None:
    """Rebind ``owner.attr`` and every ``repro`` module alias of the same object."""
    original = getattr(owner, attr)
    monkeypatch.setattr(owner, attr, replacement)
    for name, module in list(sys.modules.items()):
        if (name.startswith("repro") and module is not None
                and module.__dict__.get(attr) is original):
            monkeypatch.setattr(module, attr, replacement)


def install(monkeypatch) -> None:
    """Run every ``repro`` training path on the seed oracle until ``monkeypatch`` undoes."""
    this = sys.modules[__name__]
    for name in _KERNELS + _HELPERS:
        _replace_everywhere(monkeypatch, F, name, getattr(this, name))
    for cls, attr, replacement in _METHODS:
        monkeypatch.setattr(cls, attr, replacement)


@contextlib.contextmanager
def engine(name: str) -> Iterator[None]:
    """Run the block on the flat engine (``"flat"``) or the seed oracle (``"reference"``)."""
    if name not in ENGINES:
        raise ValueError(f"engine must be one of {ENGINES}, got {name!r}")
    with pytest.MonkeyPatch.context() as monkeypatch:
        if name == "reference":
            install(monkeypatch)
        yield
