"""Optimizers for the NumPy neural-network substrate.

Only first-order methods are needed by the paper's experiments: plain SGD with
optional momentum and weight decay, which is what FedAvg-style local training
uses, plus a proximal variant used by the FedProx baseline.

An optimizer steps the :class:`~repro.nn.flat.FlatParams` arena it is given
(``FlatParams.from_module(model)``, which is also the arena the training loop
loads the broadcast into).  A step is a handful of whole-vector NumPy ops:
gather the gradients, one fused momentum/weight-decay/proximal update, one
axpy into the weights.  Every parameter must carry a gradient; a step that
finds one without raises rather than skipping it.

The fusion is exact because every update is element-wise: ``v = m*v + g`` and
``w -= lr*u`` round identically whether applied per-parameter or over the
concatenated vector.  ``tests/nn/test_optim.py`` pins the fused step bitwise
against the seed per-parameter loop (kept as a test oracle in
``tests/oracle/seed_engine.py``) across momentum / weight-decay / mu
combinations.  Momentum lives in one flat vector laid out like the arena, so
it is keyed by parameter position, never by ``id(param)``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .flat import FlatParams

__all__ = ["Optimizer", "SGD", "ProximalSGD"]


class Optimizer:
    """Base optimizer interface over one parameter arena."""

    def __init__(self, arena: FlatParams, lr: float) -> None:
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.arena = arena
        self.lr = lr

    def zero_grad(self) -> None:
        for param in self.arena.params:
            param.zero_grad()

    def step(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum and weight decay."""

    def __init__(
        self,
        arena: FlatParams,
        lr: float,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(arena, lr)
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        if weight_decay < 0.0:
            raise ValueError(f"weight decay must be non-negative, got {weight_decay}")
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity: Optional[np.ndarray] = None

    def _adjust_flat_grad(self, grad: np.ndarray) -> np.ndarray:
        """Extra gradient terms applied *before* weight decay (ProximalSGD's hook)."""
        return grad

    def step(self) -> None:
        arena = self.arena
        grad = self._adjust_flat_grad(arena.gather_grad())
        if self.weight_decay:
            grad = grad + self.weight_decay * arena.vector
        if self.momentum:
            velocity = self._velocity
            if velocity is None:
                velocity = self._velocity = np.zeros(arena.size, dtype=arena.dtype)
            velocity *= self.momentum
            velocity += grad
            grad = velocity
        arena.vector -= self.lr * grad


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
        arena: FlatParams,
        lr: float,
        mu: float,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(arena, lr, momentum=momentum, weight_decay=weight_decay)
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
        reference = np.asarray(reference, dtype=self.arena.dtype)
        if reference.shape != (self.arena.size,):
            raise ValueError(
                f"reference of shape {reference.shape} does not match the "
                f"{self.arena.size}-element parameter block")
        self._reference = reference

    def _adjust_flat_grad(self, grad: np.ndarray) -> np.ndarray:
        if self.mu and self._reference is not None:
            return grad + self.mu * (self.arena.vector - self._reference)
        return grad
