"""SCAFFOLD (Karimireddy et al., 2020): variance reduction with control variates.

SCAFFOLD corrects client drift under non-IID data by maintaining a server
control variate ``c`` and per-client control variates ``c_i``.  During local
training every SGD step is corrected by ``(c - c_i)``; after training, the
client control variate is refreshed using option II of the paper:

    c_i_new = c_i - c + (w_global - w_local) / (K * lr)

where ``K`` is the number of local steps taken.  The server averages the
client deltas for both weights and control variates.

Parallel-execution audit: ``client_update`` only *reads* the control variates
from the shared context (missing entries are treated as zeros without being
written), and ships the refreshed client variate back in
``ClientResult.metadata`` — the server commits it in :meth:`Scaffold.
aggregate_stream`.  This keeps the client step pure so it can run on any
:mod:`repro.fl.execution` backend, including forked worker processes whose
context mutations would otherwise be silently lost.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

import numpy as np

from ...data.partition import ClientSpec
from ...nn.layers import Module
from ...nn.serialization import (
    StreamingAverager,
    add_states,
    scale_state,
    subtract_states,
    zeros_like_state,
)
from ..training import ClientResult, local_train
from .base import FLContext, StateDict, Strategy, consume_stream

__all__ = ["Scaffold"]


def _parameter_state(model: Module) -> StateDict:
    """State dict restricted to trainable parameters (control variates skip buffers)."""
    return {name: param.data.copy() for name, param in model.named_parameters()}


class Scaffold(Strategy):
    """SCAFFOLD baseline strategy."""

    name = "scaffold"

    def client_update(
        self,
        model: Module,
        spec: ClientSpec,
        global_state: StateDict,
        context: FLContext,
    ) -> ClientResult:
        config = context.config
        seed = context.client_seed(spec.client_id)

        from ..training import broadcast_weights

        arena = broadcast_weights(model, global_state)
        param_template = _parameter_state(model)

        # Read-only context access: absent control variates mean zeros, but the
        # shared storage is never written from the (possibly concurrent) client
        # step — the server commits state in aggregate_stream.
        server_c: StateDict = context.server_storage.get("scaffold_c")
        if server_c is None:
            server_c = zeros_like_state(param_template)
        storage = context.client_storage.get(spec.client_id, {})
        client_c: StateDict = storage.get("c_i")
        if client_c is None:
            client_c = zeros_like_state(param_template)

        correction = subtract_states(server_c, client_c)  # (c - c_i)
        lr = config.learning_rate
        named_params = dict(model.named_parameters())
        steps = {"count": 0}

        # The drift correction w <- w - lr * (c - c_i), applied after each
        # plain SGD step, is one whole-vector axpy on the arena — elementwise
        # identical to a per-parameter loop.
        correction_flat = np.concatenate(
            [correction[name].reshape(-1) for name in named_params]
        )

        def batch_hook(hook_model: Module, batch_index: int, epoch_index: int) -> None:
            del hook_model, batch_index, epoch_index
            arena.vector -= lr * correction_flat
            steps["count"] += 1

        result = local_train(model, spec.dataset, config, global_state,
                             batch_hook=batch_hook, seed=seed)
        result.metadata["device"] = spec.device

        # Refresh the client control variate (option II).  Both the delta (for
        # the server variate update) and the exact new value (committed to
        # this client's storage in aggregate_stream) travel back via metadata.
        num_steps = max(steps["count"], 1)
        local_params = {name: param.data.copy() for name, param in named_params.items()}
        global_params = {name: global_state[name] for name in param_template}
        drift = scale_state(subtract_states(global_params, local_params), 1.0 / (num_steps * lr))
        new_client_c = add_states(subtract_states(client_c, server_c), drift)
        result.metadata["c_delta"] = subtract_states(new_client_c, client_c)
        result.metadata["new_c_i"] = new_client_c
        return result

    def aggregate_stream(
        self,
        global_state: StateDict,
        selected: Sequence[ClientSpec],
        stream: Iterable[ClientResult],
        context: FLContext,
    ) -> Tuple[StateDict, List[ClientResult]]:
        """Streaming SCAFFOLD: fold weights *and* c-deltas in a single pass.

        Two accumulators, the sample-weighted weight average and the uniform
        c-delta average, are fed per client; each keeps its own multiply-add
        sequence, so the single pass needs only two pack buffers — O(1) in
        clients/round.

        Each client's refreshed control variate is committed to the context
        as its result streams in.  A round never selects the same client
        twice, so a still-training client cannot see another client's commit;
        the metadata copies are released immediately, keeping the per-round
        peak at the persistent-storage floor the algorithm itself requires.
        """
        if not selected:
            raise ValueError("cannot aggregate an empty list of client results")
        state_avg = StreamingAverager(
            len(selected), [len(spec.dataset) for spec in selected])
        delta_avg = StreamingAverager(len(selected))
        consumed: List[ClientResult] = []
        for result in consume_stream(selected, stream):
            state_avg.add(result.state)
            result.state = None
            delta_avg.add(result.metadata.pop("c_delta"))
            context.storage_for(result.client_id)["c_i"] = \
                result.metadata.pop("new_c_i")
            consumed.append(result)
        new_state = state_avg.finalize()
        mean_delta = delta_avg.finalize()
        server_c: StateDict = context.server_storage.get("scaffold_c")
        if server_c is None:
            server_c = zeros_like_state(mean_delta)
        fraction = len(selected) / context.config.num_clients
        context.server_storage["scaffold_c"] = add_states(
            server_c, scale_state(mean_delta, fraction))
        return new_state, consumed
