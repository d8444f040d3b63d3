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
from ...nn.flat import FlatParams
from ...nn.layers import Module
from ...nn.serialization import StateLayout, StreamingAverager
from ..training import ClientResult, local_train
from .base import FLContext, Strategy, consume_stream

__all__ = ["Scaffold"]


def _pack_or_zeros(layout: StateLayout, variate) -> np.ndarray:
    """A stored control variate packed by ``layout``; zeros while it is absent."""
    if variate is None:
        return np.zeros(layout.size, dtype=layout.dtype)
    return layout.pack(variate)


class Scaffold(Strategy):
    """SCAFFOLD baseline strategy.

    Control variates cover the parameters only, which lead the packed weight
    vector: the arithmetic runs on that block, ``vector[:arena.size]``,
    while ``c``/``c_i`` are stored as per-parameter dicts (the checkpoint
    format).
    """

    name = "scaffold"

    def client_update(
        self,
        model: Module,
        spec: ClientSpec,
        global_vec: np.ndarray,
        context: FLContext,
    ) -> ClientResult:
        config = context.config
        seed = context.client_seed(spec.client_id)
        arena = FlatParams.from_module(model)
        params = StateLayout({name: param.data for name, param in model.named_parameters()})

        # Read-only context access: absent control variates mean zeros, but the
        # shared storage is never written from the (possibly concurrent) client
        # step — the server commits state in aggregate_stream.
        server_c = _pack_or_zeros(params, context.server_storage.get("scaffold_c"))
        client_c = _pack_or_zeros(
            params, context.client_storage.get(spec.client_id, {}).get("c_i"))
        # The drift correction w <- w - lr * (c - c_i), applied after each
        # plain SGD step, is one whole-vector axpy on the arena — elementwise
        # identical to a per-parameter loop.
        correction = server_c - client_c
        lr = config.learning_rate
        steps = {"count": 0}

        def batch_hook(hook_model: Module, batch_index: int, epoch_index: int) -> None:
            del hook_model, batch_index, epoch_index
            arena.vector -= lr * correction
            steps["count"] += 1

        result = local_train(model, spec.dataset, config, global_vec,
                             batch_hook=batch_hook, seed=seed)
        result.metadata["device"] = spec.device

        # Refresh the client control variate (option II).  Both the delta (for
        # the server variate update) and the exact new value (committed to
        # this client's storage in aggregate_stream) travel back via metadata.
        num_steps = max(steps["count"], 1)
        drift = (global_vec[:arena.size] - result.vector[:arena.size]) * (1.0 / (num_steps * lr))
        new_client_c = (client_c - server_c) + drift
        result.metadata["c_delta"] = new_client_c - client_c
        result.metadata["new_c_i"] = params.unpack(new_client_c)
        return result

    def aggregate_stream(
        self,
        global_vec: np.ndarray,
        selected: Sequence[ClientSpec],
        stream: Iterable[ClientResult],
        context: FLContext,
    ) -> Tuple[np.ndarray, List[ClientResult]]:
        """Streaming SCAFFOLD: fold weights *and* c-deltas in a single pass.

        Two accumulators, the sample-weighted weight average and the uniform
        c-delta average, are fed per client; each keeps its own multiply-add
        sequence, so the single pass is O(1) in clients/round.

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
        for result in consume_stream(selected, stream, global_vec):
            state_avg.add(result.vector)
            result.vector = None
            delta_avg.add(result.metadata.pop("c_delta"))
            new_c_i = result.metadata.pop("new_c_i")
            context.storage_for(result.client_id)["c_i"] = new_c_i
            consumed.append(result)
        # The stored variates name the parameter block's keys and shapes.
        params = StateLayout(new_c_i)
        server_c = _pack_or_zeros(params, context.server_storage.get("scaffold_c"))
        fraction = len(selected) / context.config.num_clients
        context.server_storage["scaffold_c"] = params.unpack(
            server_c + delta_avg.finalize() * fraction)
        return state_avg.finalize(), consumed
