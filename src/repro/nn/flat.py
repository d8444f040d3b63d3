"""Contiguous flat-parameter arena for the NumPy neural-network substrate.

A :class:`FlatParams` owns one contiguous vector — in the engine's compute
dtype (float64 by default, float32 under ``dtype_mode("float32")``) —
holding *all* of a model's trainable parameters; every :class:`~repro.nn.layers.Parameter`'s
``.data`` becomes a reshaped view into that vector.  Because NumPy views
share memory, all existing in-place code paths (``param.data -= ...`` in the
optimizers, ``param.data[...] = value`` in ``load_state_dict``, SCAFFOLD's
drift-correction hook) keep working unchanged — but whole-model operations
(optimizer steps, weight broadcast/collect, SWAD averaging) collapse from a
per-parameter Python loop into a handful of whole-vector NumPy ops.

Every fused operation is **bitwise identical** to its per-parameter
counterpart: the fusions only batch element-wise arithmetic, which rounds
identically whether it runs per-parameter or over the concatenated vector
(``tests/nn/test_flat.py`` and ``tests/nn/test_optim.py`` pin this).

The dict ``StateDict`` stays the serialization and compatibility boundary:
:meth:`FlatParams.state_dict` returns a name->array mapping (parameter entries
are views into a single fresh copy of the arena, so collecting weights is one
big memcpy), and :meth:`FlatParams.load_state_dict` performs the same
validation as :meth:`repro.nn.layers.Module.load_state_dict`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .engine import current_dtype
from .layers import Module, Parameter

__all__ = ["FlatParams"]

StateDict = Dict[str, np.ndarray]


class FlatParams:
    """Flat contiguous arena over an ordered list of parameters.

    Parameters
    ----------
    params:
        The parameters, in the order that defines the arena layout (for a
        module this is ``named_parameters()`` order).  Their current values
        are copied into the arena and their ``.data`` is rebound to views.
    names:
        Optional parameter names aligned with ``params`` (required for
        :meth:`state_dict` / :meth:`load_state_dict`).
    module:
        Optional owning module; needed so :meth:`state_dict` /
        :meth:`load_state_dict` can include non-trainable buffers.
    """

    def __init__(
        self,
        params: Sequence[Parameter],
        names: Optional[Sequence[str]] = None,
        module: Optional[Module] = None,
    ) -> None:
        self.params: List[Parameter] = list(params)
        if not self.params:
            raise ValueError("cannot build a flat arena over an empty parameter list")
        if names is not None and len(names) != len(self.params):
            raise ValueError("names length does not match parameter count")
        self.names: Optional[List[str]] = list(names) if names is not None else None
        self.module = module

        dtype = current_dtype()
        offsets: List[int] = []
        total = 0
        for param in self.params:
            if param.data.dtype != dtype:
                raise TypeError(
                    f"flat arena requires parameters in the engine compute "
                    f"dtype {dtype} (got {param.data.dtype}); build the model "
                    f"under the matching dtype_mode")
            offsets.append(total)
            total += param.data.size
        self.offsets: List[int] = offsets
        self.size = total
        self.dtype: np.dtype = dtype
        self.vector: np.ndarray = np.empty(total, dtype=dtype)

        self._views: List[np.ndarray] = []
        for param, offset in zip(self.params, offsets):
            view = self.vector[offset : offset + param.data.size].reshape(param.data.shape)
            view[...] = param.data
            param.data = view
            param._arena = self  # backref so optimizers can adopt the arena
            self._views.append(view)
        self._grad_buf: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def from_module(cls, module: Module) -> "FlatParams":
        """The module's cached arena, built (and cached) on first use."""
        arena = getattr(module, "_flat_arena", None)
        if isinstance(arena, FlatParams) and arena.is_valid():
            return arena
        named = list(module.named_parameters())
        arena = cls([p for _, p in named], names=[n for n, _ in named], module=module)
        object.__setattr__(module, "_flat_arena", arena)
        return arena

    @classmethod
    def adopt(cls, params: Sequence[Parameter]) -> "FlatParams":
        """Reuse the arena ``params`` already live in, or build a fresh one.

        Optimizers call this: when the training loop has already flattened the
        model (:meth:`from_module`), adoption is free; bare parameter lists
        (unit tests, ad-hoc training) get their own anonymous arena.
        """
        params = list(params)
        if not params:
            raise ValueError("cannot build a flat arena over an empty parameter list")
        arena = getattr(params[0], "_arena", None)
        if (
            isinstance(arena, FlatParams)
            and len(arena.params) == len(params)
            and all(a is b for a, b in zip(arena.params, params))
            and arena.is_valid()
        ):
            return arena
        return cls(params)

    def is_valid(self) -> bool:
        """True while every parameter's ``.data`` is still its arena view."""
        return all(p.data is v for p, v in zip(self.params, self._views))

    # ------------------------------------------------------------------ #
    # Gradient gathering
    # ------------------------------------------------------------------ #
    def gather_grad(self) -> Tuple[Optional[np.ndarray], bool]:
        """Copy per-parameter gradients into one flat vector.

        Returns ``(grad_vector, any_grad)``.  The buffer is filled and
        returned only when *every* parameter contributed a gradient; with
        partial coverage the result is ``(None, True)`` — coverage is checked
        before any copying, so partial steps (which must fall back to the
        per-parameter "skip missing grads" semantics anyway) never pay a
        wasted whole-model memcpy.  ``(None, False)`` means no parameter has
        a gradient at all.
        """
        any_grad = False
        complete = True
        for param in self.params:
            if param.grad is None:
                complete = False
            else:
                any_grad = True
        if not complete:
            return None, any_grad
        buf = self._grad_buf
        if buf is None:
            buf = self._grad_buf = np.empty(self.size, dtype=self.dtype)
        for param, offset in zip(self.params, self.offsets):
            grad = param.grad
            buf[offset : offset + grad.size] = grad.reshape(-1)
        return buf, True

    def grad_segment(self, index: int) -> slice:
        """The arena slice covered by parameter ``index``."""
        offset = self.offsets[index]
        return slice(offset, offset + self.params[index].data.size)

    # ------------------------------------------------------------------ #
    # State-dict boundary (serialization / FL compat)
    # ------------------------------------------------------------------ #
    def _require_names(self) -> List[str]:
        if self.names is None:
            raise RuntimeError("this arena was built from a bare parameter list; "
                               "state-dict access requires a module-backed arena")
        return self.names

    def load_state_dict(self, state: StateDict) -> None:
        """Load a state dict through the arena (same checks as ``Module``)."""
        names = self._require_names()
        for name, view in zip(names, self._views):
            if name not in state:
                raise KeyError(f"missing parameter '{name}' in state dict")
            value = np.asarray(state[name], dtype=self.dtype)
            if value.shape != view.shape:
                raise ValueError(
                    f"shape mismatch for '{name}': {value.shape} vs {view.shape}"
                )
            view[...] = value
        if self.module is not None:
            self.module._load_buffers(state, prefix="")

    def state_dict(self) -> StateDict:
        """Collect weights as a dict whose parameter entries share ONE copy.

        The arena is copied once; each parameter's entry is a reshaped view
        into that copy, so collecting a model's weights costs a single memcpy
        instead of one allocation per parameter.  Buffers are copied
        individually (they live outside the arena).  Key order matches
        :meth:`repro.nn.layers.Module.state_dict`.
        """
        names = self._require_names()
        snapshot = self.vector.copy()
        state: StateDict = {}
        for name, param, offset in zip(names, self.params, self.offsets):
            state[name] = snapshot[offset : offset + param.data.size].reshape(param.data.shape)
        if self.module is not None:
            for name, buf in self.module.named_buffers():
                state[name] = buf.copy()
        return state

    def pack_with_buffers(self) -> Tuple[List[str], List[Tuple[int, ...]], np.ndarray]:
        """Flatten parameters *and* buffers into one vector (for SWAD/SWA).

        Returns ``(keys, shapes, vector)`` where keys/shapes follow the
        ``state_dict`` layout.  The vector is freshly allocated each call.
        """
        names = self._require_names()
        keys = list(names)
        shapes: List[Tuple[int, ...]] = [tuple(p.data.shape) for p in self.params]
        arrays: List[np.ndarray] = [self.vector]
        if self.module is not None:
            for name, buf in self.module.named_buffers():
                keys.append(name)
                shapes.append(tuple(buf.shape))
                arrays.append(buf.reshape(-1))
        return keys, shapes, np.concatenate(arrays) if len(arrays) > 1 else self.vector.copy()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FlatParams(size={self.size}, params={len(self.params)})"

