"""Strategy interface shared by FedAvg, the prior-work baselines and HeteroSwitch.

A *strategy* owns the two points where FL algorithms differ:

* ``client_update`` — how a selected client trains on its local data given the
  broadcast global weights, and
* ``aggregate_stream`` — how the server folds the returned client results,
  one at a time, into the next global model.

Weights cross both ways as vectors packed in the run's
:class:`~repro.nn.serialization.StateLayout` order: ``client_update``
receives the global vector (read-only) and returns
``ClientResult.vector``; ``aggregate_stream`` receives the same global
vector and returns the new one.

Per-round shared state (the EMA loss tracker, per-client persistent storage
such as SCAFFOLD's control variates, the round index) travels in an
:class:`FLContext` owned by the simulation loop.

Execution contract (see :mod:`repro.fl.execution`): ``client_update`` may run
concurrently with other clients of the same round — on threads or in forked
worker processes — so it must treat the context as **read-only** and derive
any randomness from its private stream (:meth:`FLContext.client_rng`), never
from shared mutable generators.  Per-client state updates travel back in
``ClientResult.metadata`` and are applied server-side in ``aggregate_stream``
/ ``on_round_end``.  Executors yield results in selection order and
:func:`consume_stream` refuses any other order, so the float reduction is a
function of which clients were selected, never of which finished first.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ...core.ema import EMALossTracker
from ...data.partition import ClientSpec
from ...nn.layers import Module
from ...nn.serialization import StateLayout, StreamingAverager
from ..config import FLConfig
from ..execution import derive_client_seed
from ..training import ClientResult, local_train

__all__ = ["FLContext", "Strategy", "FedAvg", "consume_stream"]


@dataclass
class FLContext:
    """Mutable state shared across rounds of one FL simulation.

    Strategies may mutate it only on the server side of a round
    (``aggregate_stream`` / ``on_round_end``); during ``client_update`` it is
    read-only shared state that worker threads/processes observe as a
    start-of-round snapshot.

    ``layout`` is the run's :class:`~repro.nn.serialization.StateLayout`,
    set by the simulation for server-side reductions that work per key
    (q-FedAvg's delta norm); a worker process's context carries none.
    """

    config: FLConfig
    ema: EMALossTracker
    round_index: int = 0
    client_storage: Dict[int, dict] = field(default_factory=dict)
    server_storage: dict = field(default_factory=dict)
    layout: Optional[StateLayout] = None

    def storage_for(self, client_id: int) -> dict:
        """Per-client persistent dictionary (created lazily; server-side only)."""
        return self.client_storage.setdefault(client_id, {})

    def client_seed(self, client_id: int) -> int:
        """Seed of the client's private RNG stream for the current round."""
        return derive_client_seed(self.config.seed, self.round_index, client_id)

    def client_rng(self, client_id: int) -> np.random.Generator:
        """A fresh generator on the client's ``(seed, round, client)`` stream.

        This replaces the old shared ``FLContext.rng``: a shared generator's
        draws depend on how many clients consumed it before — a latent
        nondeterminism hazard once clients run concurrently.  Derived streams
        make every client's randomness a pure function of its identity.
        """
        return np.random.default_rng(self.client_seed(client_id))


def consume_stream(selected: Sequence[ClientSpec], stream: Iterable[ClientResult],
                   global_vec: np.ndarray) -> Iterator[ClientResult]:
    """Validate a streaming round's results against the selection and broadcast.

    The executor yields results in selection order, which is the reduction
    order of every strategy.  This wrapper enforces that loudly —
    an out-of-order or short stream raises instead of silently producing a
    differently-associated float reduction — and checks the invariant the
    up-front weight computation relies on (``num_samples == len(spec.dataset)``
    for every strategy built on ``local_train``).  An update whose vector
    does not have the broadcast's shape is refused with ``ValueError``
    before anything is folded, on every execution backend alike.
    """
    count = 0
    for spec, result in zip(selected, stream):
        if result.vector.shape != global_vec.shape:
            raise ValueError(
                f"client {result.client_id} returned weights of shape "
                f"{result.vector.shape}; the broadcast has {global_vec.shape}")
        if result.client_id != spec.client_id:
            raise RuntimeError(
                f"streaming round out of order: expected client "
                f"{spec.client_id} at position {count}, got {result.client_id}"
            )
        if result.num_samples != len(spec.dataset):
            raise RuntimeError(
                f"client {result.client_id} reported num_samples="
                f"{result.num_samples} but its dataset holds "
                f"{len(spec.dataset)} samples; streaming aggregation derives "
                f"weights from the selection up front and requires the two "
                f"to agree"
            )
        count += 1
        yield result
    if count != len(selected):
        raise RuntimeError(
            f"streaming round ended early: {count} of {len(selected)} "
            f"client results received"
        )


class Strategy:
    """Base class: FedAvg behaviour with overridable client/server steps."""

    name = "strategy"

    def client_update(
        self,
        model: Module,
        spec: ClientSpec,
        global_vec: np.ndarray,
        context: FLContext,
    ) -> ClientResult:
        """Default ClientUpdate: plain local SGD (FedAvg's client behaviour)."""
        config = context.config
        seed = context.client_seed(spec.client_id)
        result = local_train(model, spec.dataset, config, global_vec, seed=seed)
        result.metadata["device"] = spec.device
        return result

    def aggregate_stream(
        self,
        global_vec: np.ndarray,
        selected: Sequence[ClientSpec],
        stream: Iterable[ClientResult],
        context: FLContext,
    ) -> Tuple[np.ndarray, List[ClientResult]]:
        """Aggregate a round whose results arrive one at a time.

        ``stream`` yields :class:`ClientResult`\\ s in selection order
        (:func:`consume_stream` refuses any other); each result is folded
        into the accumulator and released before the next arrives, so the
        server's peak memory is independent of clients/round.  Returns the
        new global vector plus the consumed results with their ``vector``
        dropped (losses, sample counts and metadata survive for
        ``on_round_end`` and the round record).

        The base implementation is FedAvg's sample-count weighted average.
        Its weights are computed *up front* from the selection
        (``num_samples == len(spec.dataset)`` for every strategy built on
        ``local_train``; enforced per result by :func:`consume_stream`)
        because :class:`StreamingAverager` normalizes weights before the
        first multiply-add.
        """
        if not selected:
            raise ValueError("cannot aggregate an empty list of client results")
        averager = StreamingAverager(
            len(selected), [len(spec.dataset) for spec in selected])
        results: List[ClientResult] = []
        for result in consume_stream(selected, stream, global_vec):
            averager.add(result.vector)
            result.vector = None
            results.append(result)
        return averager.finalize(), results

    def on_round_end(self, context: FLContext, results: List[ClientResult]) -> None:
        """Hook after aggregation; default updates the EMA loss tracker (Eq. 1)."""
        context.ema.update_from_clients(
            [result.train_loss for result in results],
            weights=[result.num_samples for result in results],
        )

    # -- persistence (checkpoint/resume) --------------------------------- #
    def state_dict(self, context: FLContext) -> Dict[str, Any]:
        """Persistent cross-round strategy state, as a checkpointable tree.

        The default captures the context storages every strategy's server-side
        state lives in — SCAFFOLD's server/client control variates, any
        per-client bookkeeping — as deep copies (nested dicts whose leaves are
        arrays or JSON scalars).  Restoring this tree into a *fresh* context
        via :meth:`load_state_dict`, together with the global weights and the
        EMA tracker, reproduces the strategy's server state bit-for-bit, which
        is what makes mid-run checkpoints resumable with bitwise-identical
        outcomes.  Strategies that keep state outside the context must
        override both methods.
        """
        return {
            "server_storage": copy.deepcopy(context.server_storage),
            "client_storage": {client_id: copy.deepcopy(storage)
                               for client_id, storage in context.client_storage.items()},
        }

    def load_state_dict(self, context: FLContext, state: Dict[str, Any]) -> None:
        """Restore the tree produced by :meth:`state_dict` into ``context``.

        Client-storage keys are coerced back to ``int``: the checkpoint codec
        round-trips them through JSON-adjacent structures where integer keys
        may arrive as strings.
        """
        context.server_storage.clear()
        context.server_storage.update(copy.deepcopy(state.get("server_storage", {})))
        context.client_storage.clear()
        for client_id, storage in state.get("client_storage", {}).items():
            context.client_storage[int(client_id)] = copy.deepcopy(storage)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


class FedAvg(Strategy):
    """FedAvg (McMahan et al., 2017): the paper's baseline."""

    name = "fedavg"
