"""FedProx (Li et al., 2020): proximal regularization of local updates.

FedProx adds ``(mu / 2) * ||w - w_global||^2`` to each client's objective so
local updates cannot drift far from the broadcast global weights under data
heterogeneity.  The paper's appendix selects ``mu = 0.1`` from a grid search.
"""

from __future__ import annotations

import numpy as np

from ...data.partition import ClientSpec
from ...nn.flat import FlatParams
from ...nn.layers import Module
from ...nn.optim import ProximalSGD
from ..training import ClientResult, local_train
from .base import FLContext, Strategy

__all__ = ["FedProx"]


class FedProx(Strategy):
    """FedProx baseline strategy."""

    name = "fedprox"

    def __init__(self, mu: float = 0.1) -> None:
        if mu < 0:
            raise ValueError(f"mu must be non-negative, got {mu}")
        self.mu = mu

    def client_update(
        self,
        model: Module,
        spec: ClientSpec,
        global_vec: np.ndarray,
        context: FLContext,
    ) -> ClientResult:
        config = context.config
        seed = context.client_seed(spec.client_id)
        # The optimizer adopts the model's arena, so the proximal reference
        # is the broadcast's parameter block as it stands; local_train then
        # loads the broadcast into that arena, once.
        arena = FlatParams.from_module(model)
        optimizer = ProximalSGD(model.parameters(), lr=config.learning_rate, mu=self.mu,
                                momentum=config.momentum, weight_decay=config.weight_decay)
        optimizer.set_reference(global_vec[:arena.size])
        result = local_train(model, spec.dataset, config, global_vec,
                             optimizer=optimizer, seed=seed)
        result.metadata["device"] = spec.device
        return result

    def __repr__(self) -> str:  # pragma: no cover
        return f"FedProx(mu={self.mu})"
