"""A small reverse-mode automatic differentiation engine on top of NumPy.

This module is the computational substrate for the whole reproduction: the
paper trains convolutional networks with PyTorch, which is not available in
this environment, so we provide a compact autograd ``Tensor`` holding the
operations the model zoo (:mod:`repro.nn.models`) uses and no others:
elementwise ``+``, ``-`` and ``*``, ``sum``/``mean``, ``reshape``/``transpose``,
``exp``, ``log``, ``relu`` and ``clip``, plus :func:`concatenate`.  The
kernels of :mod:`repro.nn.functional` add the layers' fused nodes.  One
finite-difference test (``tests/nn/test_gradients.py``) checks every one of
their backward functions.

The design follows the familiar define-by-run pattern: every operation on
:class:`Tensor` objects records a backward function and its input tensors on
the output tensor, and :meth:`Tensor.backward` walks the recorded graph in
reverse topological order accumulating gradients.  All heavy lifting is
vectorized NumPy; there are no per-element Python loops on the hot path.

Graph lifetime: a node references its inputs, never the other way round, and
no backward function captures its own output (it receives it as an
argument), so a graph holds no reference cycles.  :meth:`Tensor.backward`
unlinks each node as the sweep passes it, so reference counting frees a
step's activations while the sweep runs, and a graph supports one
``backward()``: a second one through it raises ``RuntimeError``.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable, Optional, Sequence, Tuple, Union

import numpy as np

from .engine import _ENGINE as _engine_state

ArrayLike = Union[np.ndarray, float, int, Sequence]

__all__ = ["Tensor", "no_grad", "is_grad_enabled"]


class _GradMode(threading.local):
    """Per-thread flag controlling whether operations build the graph.

    Thread-local rather than process-wide: a model evaluated under
    ``no_grad`` on one thread must not switch off graph construction under
    another thread's training step in the same process.
    """

    def __init__(self) -> None:
        self.enabled = True


_GRAD_MODE = _GradMode()


class no_grad:
    """Context manager that disables graph construction (like ``torch.no_grad``)."""

    def __enter__(self) -> "no_grad":
        self._prev = _GRAD_MODE.enabled
        _GRAD_MODE.enabled = False
        return self

    def __exit__(self, *exc) -> None:
        _GRAD_MODE.enabled = self._prev


def is_grad_enabled() -> bool:
    """Return ``True`` if operations currently record gradient information."""
    return _GRAD_MODE.enabled


def _as_array(data: ArrayLike, dtype=None) -> np.ndarray:
    if dtype is None:
        # The engine's thread-local compute dtype (float64 unless a
        # dtype_mode selects float32); imported lazily at call
        # sites via the module attribute to keep this hot path cheap.
        dtype = _engine_state.dtype
    if isinstance(data, np.ndarray):
        if data.dtype != dtype:
            return data.astype(dtype)
        return data
    return np.asarray(data, dtype=dtype)


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` over broadcast dimensions so it matches ``shape``.

    NumPy broadcasting expands leading dimensions and size-1 dimensions; the
    corresponding gradient contribution must be summed back down.
    """
    if grad.shape == shape:
        return grad
    # Sum extra leading dims.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum over broadcast (size-1) axes.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


def _released(grad: np.ndarray, out: "Tensor") -> None:
    """Backward function of a node that an earlier sweep has released."""
    raise RuntimeError(
        "backward() reached a graph node already freed by an earlier backward(); "
        "a graph supports one backward()"
    )


class Tensor:
    """A NumPy-backed tensor with reverse-mode autodiff.

    Parameters
    ----------
    data:
        Array-like payload.  Stored in the engine's thread-local compute
        dtype — ``float64`` by default for numerical robustness of the
        small-scale experiments in this repository, or ``float32`` inside a
        :class:`repro.nn.engine.dtype_mode` block.
    requires_grad:
        Whether gradients should be accumulated into :attr:`grad` during
        :meth:`backward`.
    """

    __slots__ = (
        "data",
        "grad",
        "requires_grad",
        "_backward",
        "_parents",
        "_pending_grads",
        "name",
    )

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        name: Optional[str] = None,
    ) -> None:
        self.data: np.ndarray = _as_array(data)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad: bool = bool(requires_grad)
        self._backward: Optional[Callable[[np.ndarray, "Tensor"], None]] = None
        self._parents: Tuple["Tensor", ...] = ()
        self.name = name

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag})"

    def item(self) -> float:
        """Return the single scalar value held by this tensor."""
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut from the graph."""
        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        """Return a deep copy (detached)."""
        return Tensor(self.data.copy(), requires_grad=self.requires_grad)

    def zero_grad(self) -> None:
        """Reset the accumulated gradient."""
        self.grad = None

    # ------------------------------------------------------------------ #
    # Graph bookkeeping
    # ------------------------------------------------------------------ #
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Iterable["Tensor"],
        backward: Callable[[np.ndarray, "Tensor"], None],
    ) -> "Tensor":
        """Wrap ``data`` as the output of an operation on ``parents``.

        ``backward(grad, out)`` routes ``grad`` (the gradient of ``out``) to
        the parents through ``out._send``.  It must not capture ``out``
        itself: the node would then be a reference cycle that outlives the
        step until the cyclic collector runs.  The link lasts until
        :meth:`backward` sweeps past the node.
        """
        parents = tuple(parents)
        requires = _GRAD_MODE.enabled and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires)
        if requires:
            out._parents = parents
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = grad.copy() if grad.base is not None or grad is self.data else grad
        else:
            self.grad = self.grad + grad

    def backward(self, grad: Optional[ArrayLike] = None) -> None:
        """Backpropagate from this tensor.

        Each non-leaf node is released once the sweep has handled it: its
        parents and backward function are dropped, so its activations and
        saved temporaries are freed during the sweep.  The graph thus
        supports one ``backward()``; a later one that reaches a released
        node with a gradient raises ``RuntimeError``.

        Parameters
        ----------
        grad:
            Seed gradient.  Defaults to ``1.0`` which is only valid for scalar
            outputs (e.g. a loss value).
        """
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward() without a gradient requires a scalar tensor")
            grad = np.ones_like(self.data)
        grad = _as_array(grad)

        # Topological order of the graph reachable from self.
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        grads: dict[int, np.ndarray] = {id(self): grad}
        # Popping drops the sweep's own reference, so a released node is
        # freed unless the caller still holds it.
        while topo:
            node = topo.pop()
            node_grad = grads.pop(id(node), None)
            if node._backward is None:
                if node_grad is not None and node.requires_grad:
                    node._accumulate(node_grad)
                continue
            if node_grad is not None:
                node._pending_grads = grads
                node._backward(node_grad, node)
                del node._pending_grads
            node._parents = ()
            node._backward = _released

    # Helper used inside backward functions to route gradients to parents.
    def _send(self, parent: "Tensor", grad: np.ndarray) -> None:
        grads: dict[int, np.ndarray] = getattr(self, "_pending_grads")
        key = id(parent)
        if parent._backward is None and parent.requires_grad:
            parent._accumulate(grad)
        elif parent._backward is not None:
            if key in grads:
                grads[key] = grads[key] + grad
            else:
                grads[key] = grad

    # ------------------------------------------------------------------ #
    # Elementwise arithmetic
    # ------------------------------------------------------------------ #
    def __add__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        out_data = self.data + other_t.data

        def backward(grad: np.ndarray, out: "Tensor") -> None:
            out._send(self, _unbroadcast(grad, self.shape))
            out._send(other_t, _unbroadcast(grad, other_t.shape))

        return Tensor._make(out_data, (self, other_t), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        out_data = -self.data

        def backward(grad: np.ndarray, out: "Tensor") -> None:
            out._send(self, -grad)

        return Tensor._make(out_data, (self,), backward)

    def __sub__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        return self + (-other_t)

    def __mul__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        out_data = self.data * other_t.data

        def backward(grad: np.ndarray, out: "Tensor") -> None:
            out._send(self, _unbroadcast(grad * other_t.data, self.shape))
            out._send(other_t, _unbroadcast(grad * self.data, other_t.shape))

        return Tensor._make(out_data, (self, other_t), backward)

    __rmul__ = __mul__

    # ------------------------------------------------------------------ #
    # Reductions
    # ------------------------------------------------------------------ #
    def sum(self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray, out: "Tensor") -> None:
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
            out._send(self, np.broadcast_to(g, self.shape).astype(self.data.dtype))

        return Tensor._make(out_data, (self,), backward)

    def mean(self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        elif isinstance(axis, int):
            count = self.data.shape[axis]
        else:
            count = int(np.prod([self.data.shape[a] for a in axis]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    # ------------------------------------------------------------------ #
    # Shape manipulation
    # ------------------------------------------------------------------ #
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)
        original_shape = self.shape

        def backward(grad: np.ndarray, out: "Tensor") -> None:
            out._send(self, grad.reshape(original_shape))

        return Tensor._make(out_data, (self,), backward)

    def transpose(self, *axes: int) -> "Tensor":
        axes_tuple = axes if axes else None
        out_data = self.data.transpose(axes_tuple)

        def backward(grad: np.ndarray, out: "Tensor") -> None:
            if axes_tuple is None:
                out._send(self, grad.transpose())
            else:
                inverse = np.argsort(axes_tuple)
                out._send(self, grad.transpose(inverse))

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------ #
    # Nonlinearities (exposed here; functional wrappers live in functional.py)
    # ------------------------------------------------------------------ #
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(grad: np.ndarray, out: "Tensor") -> None:
            out._send(self, grad * out_data)

        return Tensor._make(out_data, (self,), backward)

    def log(self) -> "Tensor":
        out_data = np.log(self.data)

        def backward(grad: np.ndarray, out: "Tensor") -> None:
            out._send(self, grad / self.data)

        return Tensor._make(out_data, (self,), backward)

    def relu(self) -> "Tensor":
        mask = self.data > 0
        out_data = self.data * mask

        def backward(grad: np.ndarray, out: "Tensor") -> None:
            out._send(self, grad * mask)

        return Tensor._make(out_data, (self,), backward)

    def clip(self, low: float, high: float) -> "Tensor":
        out_data = np.clip(self.data, low, high)
        mask = (self.data >= low) & (self.data <= high)

        def backward(grad: np.ndarray, out: "Tensor") -> None:
            out._send(self, grad * mask)

        return Tensor._make(out_data, (self,), backward)


def concatenate(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient support."""
    datas = [t.data for t in tensors]
    out_data = np.concatenate(datas, axis=axis)
    sizes = [d.shape[axis] for d in datas]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray, out: Tensor) -> None:
        for tensor, start, end in zip(tensors, offsets[:-1], offsets[1:]):
            slicer = [slice(None)] * grad.ndim
            slicer[axis] = slice(start, end)
            out._send(tensor, grad[tuple(slicer)])

    return Tensor._make(out_data, tuple(tensors), backward)

