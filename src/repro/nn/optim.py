"""Optimizers for the NumPy neural-network substrate.

Only first-order methods are needed by the paper's experiments: plain SGD with
optional momentum and weight decay, which is what FedAvg-style local training
uses, plus a proximal variant used by the FedProx baseline.

Parameters are flattened into a contiguous :class:`~repro.nn.flat.FlatParams`
arena and every step is a handful of whole-vector NumPy ops (gather grads,
one fused momentum/weight-decay/proximal update, one axpy into the weights),
with no per-parameter Python loop on the training hot path.

The fusion is exact because every update is element-wise: ``v = m*v + g`` and
``w -= lr*u`` round identically whether applied per-parameter or over the
concatenated vector.  ``tests/nn/test_optim.py`` pins the fused step bitwise
against the seed per-parameter loop (kept as a test oracle in
``tests/oracle/seed_engine.py``) across momentum / weight-decay / mu
combinations.  Momentum lives in one flat vector laid out like the arena, so
it is keyed by parameter position, never by ``id(param)``.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

import numpy as np

from .flat import FlatParams
from .layers import Parameter

__all__ = ["Optimizer", "SGD", "ProximalSGD"]


class Optimizer:
    """Base optimizer interface."""

    def __init__(self, params: Iterable[Parameter], lr: float) -> None:
        self.params: List[Parameter] = list(params)
        if not self.params:
            raise ValueError("optimizer received an empty parameter list")
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = lr

    def zero_grad(self) -> None:
        for param in self.params:
            param.zero_grad()

    def step(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum and weight decay.

    .. note::
       Constructing the optimizer flattens the parameters into a contiguous
       arena: each ``param.data`` is rebound to a view of the arena (values
       preserved, in-place update semantics preserved).  Hold references to :class:`Parameter` objects — not to
       their ``.data`` arrays — across optimizer construction; an array
       reference captured beforehand stops tracking updates.
    """

    def __init__(
        self,
        params: Iterable[Parameter],
        lr: float,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(params, lr)
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        if weight_decay < 0.0:
            raise ValueError(f"weight decay must be non-negative, got {weight_decay}")
        self.momentum = momentum
        self.weight_decay = weight_decay
        # The arena and one flat velocity vector.
        self._flat = FlatParams.adopt(self.params)
        self._velocity_flat: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ #
    # Per-parameter gradient adjustments (overridden by ProximalSGD).
    # ------------------------------------------------------------------ #
    def _adjusted_grad(self, index: int, param: Parameter, grad: np.ndarray) -> np.ndarray:
        """Per-parameter hook: extra gradient terms applied *before* weight decay."""
        del index, param
        return grad

    def _adjust_flat_grad(self, grad: np.ndarray) -> np.ndarray:
        """Whole-vector counterpart of :meth:`_adjusted_grad`."""
        return grad

    # ------------------------------------------------------------------ #
    # Steps
    # ------------------------------------------------------------------ #
    def step(self) -> None:
        flat = self._flat
        if not flat.is_valid():
            # The parameters were re-flattened into a different arena after
            # this optimizer was built (e.g. the training loop called
            # FlatParams.from_module on the model).  Writing into the
            # orphaned vector would silently update nothing, so re-adopt the
            # parameters' current arena; the velocity layout (same params,
            # same order) stays valid.
            flat = self._flat = FlatParams.adopt(self.params)
        grad, any_grad = flat.gather_grad()
        if not any_grad:
            return
        if grad is not None:
            self._flat_step(grad)
        else:
            # Some parameters have no gradient this step: skip them, as the
            # per-parameter loop would, by updating only the covered arena
            # segments (velocity stays a flat vector, so fused and partial
            # steps can interleave freely).
            self._partial_flat_step()

    def _flat_step(self, grad: np.ndarray) -> None:
        flat = self._flat
        grad = self._adjust_flat_grad(grad)
        if self.weight_decay:
            grad = grad + self.weight_decay * flat.vector
        if self.momentum:
            velocity = self._velocity_flat
            if velocity is None:
                velocity = self._velocity_flat = np.zeros(flat.size, dtype=flat.dtype)
            velocity *= self.momentum
            velocity += grad
            update = velocity
        else:
            update = grad
        flat.vector -= self.lr * update

    def _partial_flat_step(self) -> None:
        flat = self._flat
        velocity_flat = self._velocity_flat
        if self.momentum and velocity_flat is None:
            velocity_flat = self._velocity_flat = np.zeros(flat.size, dtype=flat.dtype)
        for index, param in enumerate(self.params):
            if param.grad is None:
                continue
            grad = self._adjusted_grad(index, param, param.grad)
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            if self.momentum:
                segment = velocity_flat[flat.grad_segment(index)].reshape(param.data.shape)
                segment *= self.momentum
                segment += grad
                update = segment
            else:
                update = grad
            param.data -= self.lr * update


class ProximalSGD(SGD):
    """SGD with a FedProx proximal term pulling weights toward a reference point.

    The FedProx local objective is ``f(w) + (mu / 2) * ||w - w_global||^2``; its
    gradient adds ``mu * (w - w_global)`` to every update.  The proximal term
    is combined into the update *without* mutating ``param.grad`` — the stored
    gradient stays exactly what ``backward()`` accumulated, so batch hooks and
    any other post-step readers of ``.grad`` see the task gradient, not the
    regularized one.
    """

    def __init__(
        self,
        params: Iterable[Parameter],
        lr: float,
        mu: float,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(params, lr, momentum=momentum, weight_decay=weight_decay)
        if mu < 0:
            raise ValueError(f"mu must be non-negative, got {mu}")
        self.mu = mu
        self._reference: Optional[np.ndarray] = None

    def set_reference(self, reference: np.ndarray) -> None:
        """Record the global weights ``w_global`` for the proximal term.

        ``reference`` is the flat parameter block, laid out like the
        optimizer's arena — ``global_vec[:arena.size]`` of a packed global
        vector.  It is held and read as given (cast only if its dtype
        differs from the arena's), never written.
        """
        reference = np.asarray(reference, dtype=self._flat.dtype)
        if reference.shape != (self._flat.size,):
            raise ValueError(
                f"reference of shape {reference.shape} does not match the "
                f"{self._flat.size}-element parameter block")
        self._reference = reference

    def _adjusted_grad(self, index: int, param: Parameter, grad: np.ndarray) -> np.ndarray:
        if self.mu and self._reference is not None:
            reference = self._reference[self._flat.grad_segment(index)]
            return grad + self.mu * (param.data - reference.reshape(param.data.shape))
        return grad

    def _adjust_flat_grad(self, grad: np.ndarray) -> np.ndarray:
        if self.mu and self._reference is not None:
            return grad + self.mu * (self._flat.vector - self._reference)
        return grad
