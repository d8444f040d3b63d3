"""Contiguous flat-parameter arena for the NumPy neural-network substrate.

A :class:`FlatParams` owns one contiguous vector — in the engine's compute
dtype (float64 by default, float32 under ``dtype_mode("float32")``) —
holding *all* of a model's trainable parameters; every :class:`~repro.nn.layers.Parameter`'s
``.data`` becomes a reshaped view into that vector.  Because NumPy views
share memory, in-place code paths (``param.data[...] = value`` in
``load_state_dict``, SCAFFOLD's drift-correction hook) keep working
unchanged — but whole-model operations (optimizer steps, weight
broadcast/collect, SWAD averaging) collapse from a per-parameter Python loop
into a handful of whole-vector NumPy ops.

A model's arena is built once and cached on it (:meth:`FlatParams.from_module`);
the training loop loads the broadcast into it and the optimizer steps it, so
both always hold the same object.  A bare parameter list gets its own arena
through the constructor.

Every fused operation is **bitwise identical** to its per-parameter
counterpart: the fusions only batch element-wise arithmetic, which rounds
identically whether it runs per-parameter or over the concatenated vector
(``tests/nn/test_flat.py`` and ``tests/nn/test_optim.py`` pin this).

Weights enter and leave the arena as one vector: :meth:`FlatParams.pack`
copies the parameters and then the module's buffers into a fresh vector
(one memcpy of the arena plus the buffers), and :meth:`FlatParams.load`
copies such a vector back.  The order is ``Module.state_dict``'s, so the
vector is the model's state packed by its
:class:`~repro.nn.serialization.StateLayout`: the format in which the FL
round protocol moves weights between server and clients.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from .engine import current_dtype
from .layers import Module, Parameter

__all__ = ["FlatParams"]


class FlatParams:
    """Flat contiguous arena over an ordered list of parameters.

    Parameters
    ----------
    params:
        The parameters, in the order that defines the arena layout (for a
        module this is ``named_parameters()`` order).  Their current values
        are copied into the arena and their ``.data`` is rebound to views.
    module:
        Optional owning module; its non-trainable buffers follow the
        parameters in :meth:`pack` and :meth:`load`.
    """

    def __init__(self, params: Sequence[Parameter], module: Optional[Module] = None) -> None:
        self.params: List[Parameter] = list(params)
        if not self.params:
            raise ValueError("cannot build a flat arena over an empty parameter list")
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
        arena = cls(module.parameters(), module=module)
        object.__setattr__(module, "_flat_arena", arena)
        return arena

    def is_valid(self) -> bool:
        """True while every parameter's ``.data`` is still its arena view."""
        return all(p.data is v for p, v in zip(self.params, self._views))

    # ------------------------------------------------------------------ #
    # Gradient gathering
    # ------------------------------------------------------------------ #
    def gather_grad(self) -> np.ndarray:
        """Copy every parameter's gradient into one flat vector and return it.

        The vector is a buffer the arena reuses across calls.  A parameter
        without a gradient raises :class:`ValueError` naming its index and
        shape: every model trains all of its parameters, so a missing
        gradient means the backward pass never reached it.
        """
        for index, param in enumerate(self.params):
            if param.grad is None:
                raise ValueError(f"parameter {index} (shape {param.data.shape}) has no "
                                 f"gradient; a step needs a gradient for every parameter")
        buf = self._grad_buf
        if buf is None:
            buf = self._grad_buf = np.empty(self.size, dtype=self.dtype)
        for param, offset in zip(self.params, self.offsets):
            grad = param.grad
            buf[offset : offset + grad.size] = grad.reshape(-1)
        return buf

    # ------------------------------------------------------------------ #
    # The packed-vector boundary (weights in and out of the model)
    # ------------------------------------------------------------------ #
    def _buffers(self) -> List[np.ndarray]:
        return [] if self.module is None else [buf for _, buf in self.module.named_buffers()]

    def pack(self) -> np.ndarray:
        """A fresh vector of the parameters, then the module's buffers.

        The order is :meth:`repro.nn.layers.Module.state_dict`'s (parameters
        first, then buffers), so the vector is the model's state packed by
        its :class:`~repro.nn.serialization.StateLayout`.
        """
        buffers = [buf.reshape(-1) for buf in self._buffers()]
        return np.concatenate([self.vector, *buffers]) if buffers else self.vector.copy()

    def load(self, vector: np.ndarray) -> None:
        """Copy a :meth:`pack`-ed vector into the parameters and buffers."""
        buffers = self._buffers()
        total = self.size + sum(buf.size for buf in buffers)
        if vector.shape != (total,):
            raise ValueError(f"packed weights of shape {vector.shape} do not fit "
                             f"this model's {total} elements")
        self.vector[...] = vector[: self.size]
        offset = self.size
        for buf in buffers:
            buf[...] = vector[offset : offset + buf.size].reshape(buf.shape)
            offset += buf.size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FlatParams(size={self.size}, params={len(self.params)})"

