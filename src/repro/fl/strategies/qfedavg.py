"""q-FedAvg / q-FFL (Li et al., 2019): fairness-weighted aggregation.

q-FedAvg reweights client updates by their loss raised to the power ``q`` so
poorly-performing clients influence the global model more, shrinking the
accuracy variance across clients.  The server update follows the q-FFL paper:

    Delta_k = L * (w_global - w_k)              (rescaled local update)
    h_k     = q * F_k^(q-1) * ||Delta_k||^2 + L * F_k^q
    w_new   = w_global - sum_k F_k^q * Delta_k / sum_k h_k

where ``F_k`` is client ``k``'s loss and ``L = 1 / lr`` estimates the local
Lipschitz constant.  The paper's appendix selects ``q = 1e-6``.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

import numpy as np

from ...data.partition import ClientSpec
from ...nn.layers import Module
from ..training import ClientResult, measure_init_loss
from .base import FLContext, Strategy, consume_stream

__all__ = ["QFedAvg"]


class QFedAvg(Strategy):
    """q-FedAvg baseline strategy (FedAvg's client training, plus ``F_k``)."""

    name = "qfedavg"

    def __init__(self, q: float = 1e-6) -> None:
        if q < 0:
            raise ValueError(f"q must be non-negative, got {q}")
        self.q = q

    def client_update(self, model: Module, spec: ClientSpec, global_vec: np.ndarray,
                      context: FLContext) -> ClientResult:
        """FedAvg's local SGD, reporting ``F_k`` (the client's ``L_init``)."""
        init_loss = measure_init_loss(model, spec.dataset, context.config, global_vec)
        result = super().client_update(model, spec, global_vec, context)
        result.init_loss = init_loss
        return result

    def aggregate_stream(
        self,
        global_vec: np.ndarray,
        selected: Sequence[ClientSpec],
        stream: Iterable[ClientResult],
        context: FLContext,
    ) -> Tuple[np.ndarray, List[ClientResult]]:
        """Streaming q-FedAvg: one accumulator pass, O(1) in clients/round.

        The q-FFL normalizer ``h_sum`` is applied once after the loop, so
        unlike FedAvg's weight normalization nothing about the reduction
        needs to be known up front.
        """
        if not selected:
            raise ValueError("cannot aggregate an empty list of client results")
        return self._reduce(
            global_vec, consume_stream(selected, stream, global_vec), context)

    def _reduce(
        self,
        global_vec: np.ndarray,
        ordered: Iterable[ClientResult],
        context: FLContext,
    ) -> Tuple[np.ndarray, List[ClientResult]]:
        """The q-FFL server update over results in selection order.

        ``ordered`` may be a lazy stream: each result's vector is folded into
        the accumulator as it arrives and then released.
        """
        lipschitz = 1.0 / context.config.learning_rate
        # Flat reduction over (n_clients, P): every step below is the exact
        # whole-vector form of the seed dict-based reduction (pinned bitwise
        # against the test oracle, tests/oracle/seed_engine.py).
        # Elementwise ops (subtract, scale, accumulate) are bitwise-identical
        # flattened; the delta norm replays the oracle's per-key partial sums
        # (its state_norm) segment by segment in layout (key-insertion) order,
        # including the sqrt-then-square round trip, so h_k matches bit-for-bit.
        # The running sum always accumulates in float64 (cast back to the
        # compute dtype once on commit below).
        weighted_delta_sum = np.zeros(global_vec.size, dtype=np.float64)
        h_sum = 0.0
        consumed: List[ClientResult] = []
        for result in ordered:
            delta = (global_vec - result.vector) * lipschitz
            result.vector = None
            consumed.append(result)
            # Use the client's *initial* loss F_k (loss of the global model on the
            # client's data), as in the q-FFL formulation.
            loss = max(result.init_loss, 1e-10)
            loss_pow_q = loss ** self.q
            norm = float(np.sqrt(sum(
                float(np.sum(np.asarray(segment, dtype=np.float64) ** 2))
                for _, segment in context.layout.segments(delta))))
            delta_norm_sq = norm ** 2
            h_k = self.q * (loss ** (self.q - 1.0)) * delta_norm_sq + lipschitz * loss_pow_q
            weighted_delta_sum += delta * loss_pow_q
            h_sum += h_k
        if h_sum <= 0:
            raise RuntimeError("q-FedAvg aggregation produced a non-positive normalizer")
        update = weighted_delta_sum * (1.0 / h_sum)
        new_vec = global_vec - update
        return new_vec.astype(global_vec.dtype, copy=False), consumed

    def __repr__(self) -> str:  # pragma: no cover
        return f"QFedAvg(q={self.q})"
