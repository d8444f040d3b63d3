"""Functional neural-network operations built on :class:`repro.nn.tensor.Tensor`.

Convolutions use an im2col lowering so the inner computation is a single large
matrix multiplication (vectorized in BLAS) rather than Python loops, following
the vectorization guidance for NumPy ML-systems code.

The hot-path kernels — :func:`linear`, :func:`batch_norm_train`,
:func:`batch_norm_eval`, :func:`hardswish` and :func:`cross_entropy` — are
single autograd nodes with hand-written backward closures.  Their forwards
evaluate the seed's operator-composed graphs' expressions; so do the
backwards, except batch norm's, which is the textbook form (two reductions
and one fused input gradient) rather than the composed graph's.  im2col gathers
through one ``np.take`` over a plan cached by ``(C, H, W, kernel, stride,
padding)`` — the index arrays are a pure function of the geometry, which is
fixed across the batches of a training run — and col2im scatters with
``np.bincount``.  Convolution contractions call ``np.matmul`` on exactly the
operands ``np.einsum(optimize=True)``'s batch-matmul step would build from
``np.take``'s C-contiguous columns, skipping einsum's per-call equation
parse.  Depthwise columns are gathered channel-major and pointwise convs
(1x1 kernel, stride 1, no padding) skip im2col and col2im, reading their
input's pixels in place, so those operands are views wherever the memory
order allows.  Layouts still decide bits: ``matmul`` can round a strided
view differently, so an operand not already C-contiguous is copied to it.
Both convolutions scatter an input gradient only for an input that takes one.

The seed compositions live on as a test-only oracle
(``tests/oracle/seed_engine.py``).  The fused kernels match it bitwise
wherever both see their operands in the same memory layout, batch norm's
gradients excepted, which agree with it to a few ulp.  Where the layouts
differ they round differently: at Table 4 shapes a 1x1 conv's
weight-gradient contraction gets batch-fastest columns from the seed gather
and C-contiguous ones from ``np.take``, and the two agree only to about an
ulp (the oracle's whole-step test pins the bound).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Tuple, Union

import numpy as np

from .tensor import Tensor

__all__ = [
    "linear",
    "batch_norm_train",
    "batch_norm_eval",
    "conv2d",
    "depthwise_conv2d",
    "max_pool2d",
    "global_avg_pool2d",
    "relu",
    "relu6",
    "hardswish",
    "hardsigmoid",
    "cross_entropy",
    "binary_cross_entropy_with_logits",
    "mse_loss",
    "flatten",
    "channel_shuffle",
]

IntPair = Union[int, Tuple[int, int]]


def _pair(value: IntPair) -> Tuple[int, int]:
    if isinstance(value, tuple):
        return value
    return (int(value), int(value))


# --------------------------------------------------------------------------- #
# im2col / col2im helpers
# --------------------------------------------------------------------------- #
def _seed_im2col_indices(
    chw: Tuple[int, int, int],
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int, int]:
    """im2col ``(k, i, j)`` gather indices and the output size for one geometry."""
    c, h, w = chw
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    out_h = (h + 2 * ph - kh) // sh + 1
    out_w = (w + 2 * pw - kw) // sw + 1

    i0 = np.repeat(np.arange(kh), kw)
    i0 = np.tile(i0, c)
    i1 = sh * np.repeat(np.arange(out_h), out_w)
    j0 = np.tile(np.arange(kw), kh * c)
    j1 = sw * np.tile(np.arange(out_w), out_h)

    i = i0.reshape(-1, 1) + i1.reshape(1, -1)
    j = j0.reshape(-1, 1) + j1.reshape(1, -1)
    k = np.repeat(np.arange(c), kh * kw).reshape(-1, 1)
    return k, i, j, out_h, out_w


@lru_cache(maxsize=256)
def _im2col_plan(
    chw: Tuple[int, int, int],
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, int, int]:
    """Gather/scatter index plan for im2col on an NCHW input.

    The plan depends only on the per-image geometry ``(C, H, W)`` plus the
    kernel / stride / padding, so it is computed once per layer configuration
    and reused for every batch of a run.  Returned arrays are frozen
    read-only: they are shared across threads and must never be mutated.
    ``flat`` is the per-image flattened scatter target
    ``(k * padded_h + i) * padded_w + j`` used by the bincount col2im kernel
    (stored raveled alongside its 2-D shape so backward passes never rebuild
    or re-ravel it).  ``positions`` (``(P, kh*kw)``, channel 0's ``flat``
    transposed) index each output pixel's taps in one padded plane.
    """
    c, h, w = chw
    ph, pw = padding
    k, i, j, out_h, out_w = _seed_im2col_indices(chw, kernel, stride, padding)
    flat = (k * (h + 2 * ph) + i) * (w + 2 * pw) + j
    positions = np.ascontiguousarray(flat[: kernel[0] * kernel[1]].T)
    for array in (k, i, j, flat, positions):
        array.flags.writeable = False
    return k, i, j, flat, positions, out_h, out_w


def _im2col(
    x: np.ndarray,
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
    channel_major: bool = False,
) -> Tuple[np.ndarray, Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray], int, int]:
    """Lower an NCHW batch to ``(N, C*kh*kw, P)`` im2col columns.

    The (cached) plan's flattened index matrix is pulled through one
    ``np.take`` per batch, after zero-padding by slice assignment.
    ``channel_major`` pads ``(C, N)`` planes instead and pulls each one's
    taps through the plan's ``positions``: depthwise ``(C, N, P, kh*kw)``
    columns, whose per-channel ``(N*P, kh*kw)`` matmul operands are views.
    """
    n, c, h, w = x.shape
    ph, pw = padding
    k, i, j, flat, positions, out_h, out_w = _im2col_plan((c, h, w), kernel, stride, padding)
    if channel_major:
        x = x.transpose(1, 0, 2, 3)
    if ph or pw:
        x_padded = np.zeros(x.shape[:2] + (h + 2 * ph, w + 2 * pw), dtype=x.dtype)
        x_padded[:, :, ph : ph + h, pw : pw + w] = x
    else:
        x_padded = x
    if channel_major:
        cols = np.take(x_padded.reshape(c * n, -1), positions, axis=1)
        cols = cols.reshape(c, n, out_h * out_w, -1)
    else:
        cols = np.take(x_padded.reshape(n, -1), flat, axis=1)
    return cols, (k, i, j, flat), out_h, out_w


def _col2im(
    cols: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    indices: Tuple[np.ndarray, ...],
    padding: Tuple[int, int],
) -> np.ndarray:
    """Scatter im2col columns back onto the (padded) input grid.

    Duplicate contributions are summed with ``np.bincount`` — a tight C loop
    — instead of ``np.add.at``'s buffered fancy-indexing machinery (typically
    several times faster on conv-sized scatters).  Both visit the ``(N, F,
    P)`` contributions in the same C iteration order, so duplicates targeting
    the same padded pixel accumulate in the same sequence and the sums round
    identically (pinned bitwise against the seed scatter in
    ``tests/nn/test_functional.py``).
    """
    n, c, h, w = x_shape
    ph, pw = padding
    flat = indices[3]  # (F, P) per-image flattened targets from the cached plan
    hp, wp = h + 2 * ph, w + 2 * pw
    per_image = c * hp * wp
    # One bincount per image over the cached raveled targets: images scatter
    # independently, so per-image accumulation is the same sequence of adds
    # as one batch-wide scatter — without materialising an (N*F*P) offset
    # target array on every backward call.
    flat_ravel = flat.reshape(-1)
    # np.bincount computes (and returns) float64 regardless of the weights'
    # dtype, so under float32 the cast is hoisted: one batch-wide upcast of
    # the contributions, one downcast of the scattered result — elementwise
    # identical to casting each image's bincount individually, but without a
    # per-image float64 temporary + copy inside every bincount call.
    weights = cols.reshape(n, -1)
    if weights.dtype != np.float64:
        weights = weights.astype(np.float64)
    x_padded = np.empty((n, per_image), dtype=np.float64)
    for image in range(n):
        x_padded[image] = np.bincount(flat_ravel, weights=weights[image],
                                      minlength=per_image)
    if cols.dtype != np.float64:
        x_padded = x_padded.astype(cols.dtype)
    x_padded = x_padded.reshape(n, c, hp, wp)
    if ph or pw:
        return x_padded[:, :, ph : ph + h, pw : pw + w]
    return x_padded


# --------------------------------------------------------------------------- #
# Convolution contractions lowered to matmul
# --------------------------------------------------------------------------- #
# ``np.einsum(eq, a, b, optimize=True)`` evaluates a two-operand contraction
# through numpy's batch-matmul step: it swaps the operands, transposes each
# into (batch, kept, contracted) axis order, reshapes — copying, in C order,
# only when the transposed view cannot be reshaped in place — calls
# ``np.matmul``, then reshapes and transposes the product back to the output
# axes.  Each lowering below is that sequence written out for one equation,
# so ``matmul`` sees the same operands in the same memory layout and returns
# the same bits, and the result is the same (often non-contiguous) view —
# without einsum's per-call parse.  Layout matters downstream: equal values in
# another memory order make later reductions sum in another order.
# Columns (``nfp``, ``nckp``) may be a view in any memory order; the
# lowerings copy them to einsum's C-contiguous operand only where they are
# not already in it, since ``matmul`` may round a strided view differently
# (it does for the depthwise weight gradient's matrix-vector products).
def _conv_out(w_flat: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """``of,nfp->nop``: conv2d forward."""
    n, f, p = cols.shape
    rows = np.ascontiguousarray(cols.transpose(0, 2, 1)).reshape(n * p, f)
    product = np.matmul(rows, w_flat.T)
    return product.reshape(n, p, -1).transpose(0, 2, 1)


def _conv_grad_weight(grad_flat: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """``nop,nfp->of``: conv2d weight gradient."""
    n, f, p = cols.shape
    columns = np.ascontiguousarray(cols.transpose(1, 0, 2)).reshape(f, n * p)
    return np.matmul(columns, grad_flat.transpose(0, 2, 1).reshape(n * p, -1)).T


def _conv_grad_cols(w_flat: np.ndarray, grad_flat: np.ndarray) -> np.ndarray:
    """``of,nop->nfp``: conv2d column gradient."""
    n, o, p = grad_flat.shape
    product = np.matmul(grad_flat.transpose(0, 2, 1).reshape(n * p, o), w_flat)
    return product.reshape(n, p, -1).transpose(0, 2, 1)


def _depthwise_out(w_flat: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """``ck,nckp->ncp``: depthwise forward, one matmul per channel."""
    n, c, k, p = cols.shape
    channel_major = cols.transpose(1, 0, 3, 2)
    product = np.matmul(np.ascontiguousarray(channel_major).reshape(c, n * p, k),
                        w_flat.reshape(c, k, 1))
    return product.reshape(c, n, p).transpose(1, 0, 2)


def _depthwise_grad_weight(grad_flat: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """``ncp,nckp->ck``: depthwise weight gradient."""
    n, c, k, p = cols.shape
    product = np.matmul(np.ascontiguousarray(cols.transpose(1, 2, 0, 3)).reshape(c, k, n * p),
                        grad_flat.transpose(1, 0, 2).reshape(c, n * p, 1))
    return product.reshape(c, k)


def _depthwise_grad_cols(w_flat: np.ndarray, grad_flat: np.ndarray) -> np.ndarray:
    """``ck,ncp->nckp``: depthwise column gradient.

    No axis is contracted, so einsum broadcasts a multiply instead of calling
    ``matmul``; singleton axes do not change that step.
    """
    n, c, p = grad_flat.shape
    return np.multiply(grad_flat.reshape(n, c, 1, p), w_flat.reshape(1, c, -1, 1))


_LOWERINGS = {
    "of,nfp->nop": _conv_out,
    "nop,nfp->of": _conv_grad_weight,
    "of,nop->nfp": _conv_grad_cols,
    "ck,nckp->ncp": _depthwise_out,
    "ncp,nckp->ck": _depthwise_grad_weight,
    "ck,ncp->nckp": _depthwise_grad_cols,
}
_READS_COLUMNS = frozenset(("of,nfp->nop", "nop,nfp->of", "ck,nckp->ncp", "ncp,nckp->ck"))


def _contract(equation: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """A convolution contraction through its ``np.matmul`` lowering.

    einsum drops size-1 axes before its matmul step, which lays the operands
    out differently; such rare shapes (a batch of one, a 1x1 output map) keep
    going through ``np.einsum`` so their bits match it too, reading
    C-contiguous columns (``b`` of ``_READS_COLUMNS``) as ``np.take`` gathers them.
    """
    if 1 in a.shape or 1 in b.shape:
        if equation in _READS_COLUMNS:
            b = np.ascontiguousarray(b)
        return np.einsum(equation, a, b, optimize=True)
    return _LOWERINGS[equation](a, b)


# --------------------------------------------------------------------------- #
# Linear / convolution
# --------------------------------------------------------------------------- #
def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine transform ``x @ weight.T + bias`` of a 2-D ``(batch, features)`` input.

    A single autograd node, bitwise-equal to the composed
    ``transpose -> matmul -> add`` graph: forward and backward evaluate
    exactly its expressions — ``x @ W.T``, then ``grad @ W``,
    ``(x.T @ grad).T`` and ``grad.sum(axis=0)`` — without building the two
    intermediate tensors and their closures per call.  Those gradients hold
    for 2-D ``x`` only (``x.T`` reverses every axis), so other ranks are
    refused; models flatten first.
    """
    if x.ndim != 2:
        raise ValueError(f"linear takes a 2-D (batch, features) input, got shape {x.shape}")
    out_data = x.data @ weight.data.transpose()
    if bias is not None:
        out_data = out_data + bias.data
    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(grad: np.ndarray, out: Tensor) -> None:
        out._send(x, grad @ weight.data)
        out._send(weight, (x.data.transpose() @ grad).transpose())
        if bias is not None:
            out._send(bias, grad.sum(axis=0))

    return Tensor._make(out_data, parents, backward)


def batch_norm_train(
    x: Tensor,
    weight: Tensor,
    bias: Tensor,
    axes: Tuple[int, ...],
    param_shape: Tuple[int, ...],
    eps: float,
) -> Tuple[Tensor, np.ndarray, np.ndarray]:
    """Training-mode batch norm; returns ``(out, batch_mean, batch_var)``.

    The returned statistics carry the ``keepdims`` shape of the reduction and
    feed the caller's running-stat update.

    A single autograd node.  The forward evaluates the composed
    ``mean -> center -> var -> inv_std -> scale -> shift`` graph's
    expressions (``sum * (1/count)`` means included), so its outputs and
    statistics are bitwise those of the composed graph.  The backward is the
    textbook form: with ``x̂`` the normalized input, ``grad_bias = Σg``,
    ``grad_weight = Σg·x̂`` and ``dx = w·inv_std·(g − (grad_bias +
    x̂·grad_weight)/count)``, built in one buffer.  It reassociates the
    composed graph's gradient, so it agrees with it to a few ulp.
    """
    count = int(np.prod([x.shape[a] for a in axes]))
    inv_count = 1.0 / count
    mean = x.data.sum(axis=axes, keepdims=True) * inv_count
    normalized = x.data - mean
    out_data = normalized * normalized
    var = out_data.sum(axis=axes, keepdims=True) * inv_count
    inv_std = (var + eps) ** -0.5
    normalized *= inv_std
    w_r = weight.data.reshape(param_shape)
    np.multiply(normalized, w_r, out=out_data)
    out_data += bias.data.reshape(param_shape)

    def backward(grad: np.ndarray, out: Tensor) -> None:
        grad_bias = grad.sum(axis=axes, keepdims=True)
        g_x = grad * normalized
        grad_weight = g_x.sum(axis=axes, keepdims=True)
        np.multiply(normalized, grad_weight * -inv_count, out=g_x)
        g_x -= grad_bias * inv_count
        g_x += grad
        g_x *= w_r * inv_std
        out._send(x, g_x)
        out._send(weight, grad_weight.reshape(weight.data.shape))
        out._send(bias, grad_bias.reshape(bias.data.shape))

    out = Tensor._make(out_data, (x, weight, bias), backward)
    return out, mean, var


def batch_norm_eval(
    x: Tensor,
    weight: Tensor,
    bias: Tensor,
    mean: np.ndarray,
    var: np.ndarray,
    param_shape: Tuple[int, ...],
    eps: float,
) -> Tensor:
    """Inference-mode batch norm using the running statistics."""
    inv = 1.0 / np.sqrt(var + eps)
    normalized = x.data - mean
    normalized *= inv
    w_r = weight.data.reshape(param_shape)
    out_data = normalized * w_r
    out_data += bias.data.reshape(param_shape)

    def backward(grad: np.ndarray, out: Tensor) -> None:
        axes = tuple(axis for axis, size in enumerate(param_shape) if size == 1)
        out._send(x, (grad * w_r) * inv)
        out._send(weight, (grad * normalized).sum(axis=axes).reshape(weight.data.shape))
        out._send(bias, grad.sum(axis=axes).reshape(bias.data.shape))

    return Tensor._make(out_data, (x, weight, bias), backward)


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride: IntPair = 1,
    padding: IntPair = 0,
) -> Tensor:
    """2-D convolution on NCHW tensors.

    ``weight`` has shape ``(out_channels, in_channels, kh, kw)``.  A
    pointwise conv (1x1 kernel, stride 1, no padding) skips im2col and
    col2im: its columns are a view of the input's pixels, so its ``(n*p, c)``
    matmul rows are a view of a channels-last input (a conv's output), and
    its input gradient is the column gradient made C-contiguous as the
    scatter would leave it.
    """
    stride = _pair(stride)
    padding = _pair(padding)
    n, c, h, w = x.shape
    oc, ic, kh, kw = weight.shape
    if ic != c:
        raise ValueError(f"conv2d channel mismatch: input has {c}, weight expects {ic}")

    pointwise = (kh, kw, stride, padding) == (1, 1, (1, 1), (0, 0))
    if pointwise:
        cols = x.data.reshape(n, c, h * w)
        indices, out_h, out_w = None, h, w
    else:
        cols, indices, out_h, out_w = _im2col(x.data, (kh, kw), stride, padding)
    w_flat = weight.data.reshape(oc, -1)  # (oc, C*kh*kw)
    out_data = _contract("of,nfp->nop", w_flat, cols)
    out_data = out_data.reshape(n, oc, out_h, out_w)
    if bias is not None:
        out_data = out_data + bias.data.reshape(1, oc, 1, 1)

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(grad: np.ndarray, out: Tensor) -> None:
        grad_flat = grad.reshape(n, oc, out_h * out_w)
        # dL/dW
        grad_w = _contract("nop,nfp->of", grad_flat, cols)
        out._send(weight, grad_w.reshape(weight.shape))
        # dL/dx, only for an input that takes a gradient (not raw images)
        if x.requires_grad:
            grad_cols = _contract("of,nop->nfp", w_flat, grad_flat)
            if pointwise:
                grad_x = np.ascontiguousarray(grad_cols).reshape(x.shape)
            else:
                grad_x = _col2im(grad_cols, x.shape, indices, padding)
            out._send(x, grad_x)
        if bias is not None:
            out._send(bias, grad.sum(axis=(0, 2, 3)))

    return Tensor._make(out_data, parents, backward)


def depthwise_conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride: IntPair = 1,
    padding: IntPair = 0,
) -> Tensor:
    """Depthwise 2-D convolution: each input channel is filtered independently.

    ``weight`` has shape ``(channels, 1, kh, kw)``.  Columns are gathered
    channel-major, so the forward's ``(n*p, kh*kw)`` operands are views.
    """
    stride = _pair(stride)
    padding = _pair(padding)
    n, c, h, w = x.shape
    wc, one, kh, kw = weight.shape
    if wc != c or one != 1:
        raise ValueError("depthwise_conv2d expects weight of shape (C, 1, kh, kw)")

    cols, indices, out_h, out_w = _im2col(x.data, (kh, kw), stride, padding, channel_major=True)
    cols_grouped = cols.transpose(1, 0, 3, 2)  # (N, C, kh*kw, P) view
    w_flat = weight.data.reshape(c, kh * kw)
    out_data = _contract("ck,nckp->ncp", w_flat, cols_grouped)
    out_data = out_data.reshape(n, c, out_h, out_w)
    if bias is not None:
        out_data = out_data + bias.data.reshape(1, c, 1, 1)

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(grad: np.ndarray, out: Tensor) -> None:
        grad_flat = grad.reshape(n, c, out_h * out_w)
        grad_w = _contract("ncp,nckp->ck", grad_flat, cols_grouped)
        out._send(weight, grad_w.reshape(weight.shape))
        if x.requires_grad:
            grad_cols = _contract("ck,ncp->nckp", w_flat, grad_flat)
            grad_cols = grad_cols.reshape(n, c * kh * kw, out_h * out_w)
            out._send(x, _col2im(grad_cols, x.shape, indices, padding))
        if bias is not None:
            out._send(bias, grad.sum(axis=(0, 2, 3)))

    return Tensor._make(out_data, parents, backward)


# --------------------------------------------------------------------------- #
# Pooling
# --------------------------------------------------------------------------- #
def max_pool2d(x: Tensor, kernel_size: IntPair, stride: Optional[IntPair] = None) -> Tensor:
    """Max pooling on NCHW tensors (non-overlapping windows by default)."""
    kh, kw = _pair(kernel_size)
    sh, sw = _pair(stride) if stride is not None else (kh, kw)
    n, c, h, w = x.shape
    out_h = (h - kh) // sh + 1
    out_w = (w - kw) // sw + 1

    cols, indices, _, _ = _im2col(x.data, (kh, kw), (sh, sw), (0, 0))
    cols_grouped = cols.reshape(n, c, kh * kw, out_h * out_w)
    argmax = cols_grouped.argmax(axis=2)  # (N, C, P)
    out_data = np.take_along_axis(cols_grouped, argmax[:, :, None, :], axis=2)[:, :, 0, :]
    out_data = out_data.reshape(n, c, out_h, out_w)

    def backward(grad: np.ndarray, out: Tensor) -> None:
        grad_flat = grad.reshape(n, c, out_h * out_w)
        grad_cols = np.zeros_like(cols_grouped)
        np.put_along_axis(grad_cols, argmax[:, :, None, :], grad_flat[:, :, None, :], axis=2)
        grad_cols = grad_cols.reshape(n, c * kh * kw, out_h * out_w)
        grad_x = _col2im(grad_cols, x.shape, indices, (0, 0))
        out._send(x, grad_x)

    return Tensor._make(out_data, (x,), backward)


def global_avg_pool2d(x: Tensor) -> Tensor:
    """Average over the spatial dimensions, returning an ``(N, C)`` tensor."""
    return x.mean(axis=(2, 3))


# --------------------------------------------------------------------------- #
# Activations
# --------------------------------------------------------------------------- #
def relu(x: Tensor) -> Tensor:
    return x.relu()


def relu6(x: Tensor) -> Tensor:
    return x.clip(0.0, 6.0)


def hardsigmoid(x: Tensor) -> Tensor:
    """Piecewise-linear sigmoid used by MobileNetV3: ``relu6(x + 3) / 6``."""
    return relu6(x + 3.0) * (1.0 / 6.0)


def hardswish(x: Tensor) -> Tensor:
    """MobileNetV3 hard-swish: ``x * relu6(x + 3) / 6``.

    A single autograd node, bitwise-equal to the composed chain: it
    replicates ``x * (clip(x + 3, 0, 6) * (1/6))`` and its backward —
    ``g * hsig + ((g * x) * (1/6)) * mask`` — expression for expression.
    """
    shifted = x.data + 3.0
    mask = (shifted >= 0.0) & (shifted <= 6.0)
    hsig = np.clip(shifted, 0.0, 6.0) * (1.0 / 6.0)
    out_data = x.data * hsig

    def backward(grad: np.ndarray, out: Tensor) -> None:
        out._send(x, grad * hsig + ((grad * x.data) * (1.0 / 6.0)) * mask)

    return Tensor._make(out_data, (x,), backward)


def flatten(x: Tensor) -> Tensor:
    """Flatten all dimensions but the first."""
    return x.reshape(x.shape[0], -1)


def channel_shuffle(x: Tensor, groups: int) -> Tensor:
    """ShuffleNet channel shuffle for NCHW tensors."""
    n, c, h, w = x.shape
    if c % groups != 0:
        raise ValueError(f"channels {c} not divisible by groups {groups}")
    return x.reshape(n, groups, c // groups, h, w).transpose(0, 2, 1, 3, 4).reshape(n, c, h, w)


# --------------------------------------------------------------------------- #
# Losses
# --------------------------------------------------------------------------- #
def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean cross-entropy between ``logits`` (N, C) and integer ``targets`` (N,).

    A single autograd node, bitwise-equal to the composed graph.  The
    composed graph (shift by max -> exp -> sum -> log -> gather -> mean ->
    negate) builds ~10 tensors and closures per loss evaluation; this
    kernel evaluates the same NumPy expressions in the same order (including
    the ``sum * (1/n)`` mean and the row-sum the broadcast-add backward
    performs) inside one node, so both the loss value and the logits gradient
    match the seed composition bit-for-bit (``tests/nn/test_functional.py``).
    """
    targets = np.asarray(targets)
    n, num_classes = logits.shape
    rows = np.arange(n)
    x = logits.data
    mx = x.max(axis=-1, keepdims=True)
    shifted = x - mx
    ex = np.exp(shifted)
    sumexp = ex.sum(axis=-1, keepdims=True)
    logsum = np.log(sumexp)
    picked = shifted[rows, targets] - logsum[:, 0]
    out_data = -(picked.sum() * (1.0 / n))

    def backward(grad: np.ndarray, out: Tensor) -> None:
        # Replicates the composed chain: negate -> mean -> gather-scatter ->
        # broadcast-add (row sum) -> log -> sum (broadcast) -> exp -> shift.
        g_picked = np.broadcast_to((-grad) * (1.0 / n), (n,)).astype(x.dtype)
        scatter = np.zeros((n, num_classes), dtype=x.dtype)
        scatter[rows, targets] = g_picked
        g_logsum = -scatter.sum(axis=1, keepdims=True)
        g_exp = np.broadcast_to(g_logsum / sumexp, (n, num_classes)).astype(x.dtype)
        out._send(logits, scatter + g_exp * ex)

    return Tensor._make(np.asarray(out_data), (logits,), backward)


def binary_cross_entropy_with_logits(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean multi-label BCE loss computed stably from logits.

    Uses the standard ``max(x, 0) - x*t + log(1 + exp(-|x|))`` formulation.
    """
    targets_t = Tensor(np.asarray(targets, dtype=logits.data.dtype))
    # max(x, 0) and |x| are expressed through differentiable ops so gradients
    # flow: max(x, 0) = relu(x); |x| = relu(x) + relu(-x).
    relu_pos = logits.relu()
    relu_neg = (-logits).relu()
    softplus = ((-(relu_pos + relu_neg)).exp() + 1.0).log()
    loss = relu_pos - logits * targets_t + softplus
    return loss.mean()


def mse_loss(pred: Tensor, targets: np.ndarray) -> Tensor:
    """Mean squared error."""
    diff = pred - Tensor(np.asarray(targets, dtype=pred.data.dtype))
    return (diff * diff).mean()

