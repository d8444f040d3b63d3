"""Staleness-aware server aggregation for asynchronous FL.

Synchronous strategies aggregate a *round*: every selected client trains from
the same broadcast weights and the server reduces all results at once.  The
asynchronous server instead consumes one :class:`AsyncUpdate` at a time, each
trained from whatever global version was current when its client was
dispatched; by the time it arrives the server may have committed ``τ`` newer
versions.  Both strategies here discount updates polynomially in that
staleness, ``(1 + τ)^{-a}`` (Xie et al., 2019):

* :class:`FedAsync` mixes every arriving update straight into the global
  model with weight ``α · (1 + τ)^{-a}`` — one server commit per update.
* :class:`FedBuff` accumulates staleness-discounted *deltas* and commits a
  weighted average once ``buffer_size`` updates have arrived (Nguyen et al.,
  2022) — one commit per K updates.

Server math operates on the flat parameter vectors of
:class:`~repro.nn.serialization.StateLayout` (the PR 5 whole-vector path):
updates arrive packed, and a commit is a handful of vector ops.  Buffered
state lives in ``context.server_storage``, so the base
:meth:`~repro.fl.strategies.base.Strategy.state_dict` checkpoint path
persists it without any strategy-specific code.

These strategies are *asynchronous-only* (``requires_async = True``): the
synchronous loop rejects them, and their ``aggregate_stream`` raises — there
is no meaningful round-based reduction for them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from ..strategies.base import FLContext, Strategy
from ..training import ClientResult

__all__ = [
    "AsyncUpdate",
    "AsyncCommit",
    "AsyncStrategy",
    "FedAsync",
    "FedBuff",
    "polynomial_staleness",
]


def polynomial_staleness(staleness: int, exponent: float) -> float:
    """The polynomial staleness discount ``(1 + τ)^{-a}``.

    ``exponent == 0`` disables discounting (every update weighs the same);
    larger exponents damp stale updates harder.
    """
    if staleness < 0:
        raise ValueError(f"staleness must be non-negative, got {staleness}")
    return float((1.0 + staleness) ** -exponent)


@dataclass
class AsyncUpdate:
    """One client's completed local update, as the async server consumes it.

    ``result.vector`` is the trained weights packed by the run's
    :class:`~repro.nn.serialization.StateLayout`; ``delta`` is that vector
    minus the (packed) weights the client was dispatched with.  ``dispatch_version``
    is the server commit count at dispatch time, so the staleness of the
    update at arrival is ``server_version - dispatch_version``.
    """

    result: ClientResult
    delta: np.ndarray
    dispatch_version: int

    @property
    def client_id(self) -> int:
        return self.result.client_id

    @property
    def num_samples(self) -> int:
        return self.result.num_samples

    @property
    def train_loss(self) -> float:
        return self.result.train_loss

    def entry(self, staleness: int) -> Dict[str, Any]:
        """JSON/array-safe record of this update for commit bookkeeping."""
        return {
            "client_id": int(self.result.client_id),
            "num_samples": int(self.result.num_samples),
            "train_loss": float(self.result.train_loss),
            "staleness": int(staleness),
            "device": str(self.result.metadata.get("device", "")),
        }


@dataclass
class AsyncCommit:
    """One server commit: the new global vector plus provenance.

    ``entries`` (see :meth:`AsyncUpdate.entry`) record which client updates
    the commit folded in — one entry for :class:`FedAsync`, ``buffer_size``
    for :class:`FedBuff` — in the deterministic arrival order the server
    consumed them.
    """

    vector: np.ndarray
    entries: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def staleness(self) -> List[int]:
        return [int(e["staleness"]) for e in self.entries]


class AsyncStrategy(Strategy):
    """Base class for staleness-aware server aggregation.

    Subclasses implement :meth:`server_update`; the inherited
    ``client_update`` (plain local SGD from the dispatched weights) is reused
    unchanged, so the executor fan-out path is identical to the synchronous
    one.  ``requires_async`` marks the strategy as unusable in the
    round-synchronous loop.
    """

    requires_async = True

    def server_update(
        self,
        global_vec: np.ndarray,
        update: AsyncUpdate,
        staleness: int,
        context: FLContext,
    ) -> Optional[AsyncCommit]:
        """Consume one update; return a commit or ``None`` (buffered)."""
        raise NotImplementedError

    def pending_entries(self, context: FLContext) -> List[Dict[str, Any]]:
        """Buffered-but-uncommitted update records (empty unless buffering)."""
        return []

    def aggregate_stream(self, global_vec, selected, stream, context):
        raise RuntimeError(
            f"strategy '{self.name}' is asynchronous-only and has no "
            f"round-based aggregation; run it with kind='federated_async' "
            f"(AsyncFederatedSimulation)"
        )


class FedAsync(AsyncStrategy):
    """FedAsync (Xie et al., 2019): mix every update in as it arrives.

    The arriving update's packed weights are blended into the global vector
    with mixing weight ``s = alpha · (1 + τ)^{-staleness_exponent}``::

        global ← (1 - s) · global + s · update

    Every update produces a server commit, so the global version advances
    once per completed client.
    """

    name = "fedasync"

    def __init__(self, alpha: float = 0.6, staleness_exponent: float = 0.5) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        if staleness_exponent < 0:
            raise ValueError(f"staleness_exponent must be non-negative, got {staleness_exponent}")
        self.alpha = alpha
        self.staleness_exponent = staleness_exponent

    def server_update(self, global_vec, update, staleness, context):
        mix = self.alpha * polynomial_staleness(staleness, self.staleness_exponent)
        vector = (1.0 - mix) * global_vec + mix * update.result.vector
        return AsyncCommit(vector=vector, entries=[update.entry(staleness)])


class FedBuff(AsyncStrategy):
    """FedBuff (Nguyen et al., 2022): commit a buffer of K discounted deltas.

    Each arriving update contributes its *delta* (trained minus dispatched
    weights) with weight ``num_samples · (1 + τ)^{-staleness_exponent}``.
    Once ``buffer_size`` updates have accumulated, the server applies their
    weighted average, scaled by ``server_lr``, and clears the buffer::

        global ← global + server_lr · Σ wᵢ·δᵢ / Σ wᵢ

    The buffer lives in ``context.server_storage["fedbuff"]``, so checkpoints
    capture half-full buffers and a resumed run commits exactly when the
    uninterrupted one would have.
    """

    name = "fedbuff"

    def __init__(self, buffer_size: int = 4, staleness_exponent: float = 0.5,
                 server_lr: float = 1.0) -> None:
        if isinstance(buffer_size, bool) or not isinstance(buffer_size, int) or buffer_size < 1:
            raise ValueError(f"buffer_size must be a positive integer, got {buffer_size!r}")
        if staleness_exponent < 0:
            raise ValueError(f"staleness_exponent must be non-negative, got {staleness_exponent}")
        if server_lr <= 0:
            raise ValueError(f"server_lr must be positive, got {server_lr}")
        self.buffer_size = buffer_size
        self.staleness_exponent = staleness_exponent
        self.server_lr = server_lr

    def _buffer(self, context: FLContext) -> List[Dict[str, Any]]:
        return context.server_storage.setdefault("fedbuff", {}).setdefault("buffer", [])

    def pending_entries(self, context):
        return [{k: v for k, v in item.items() if k != "delta"}
                for item in self._buffer(context)]

    def server_update(self, global_vec, update, staleness, context):
        buffer = self._buffer(context)
        weight = update.num_samples * polynomial_staleness(staleness, self.staleness_exponent)
        buffer.append({"delta": update.delta.copy(), "weight": float(weight),
                       **update.entry(staleness)})
        if len(buffer) < self.buffer_size:
            return None
        items, buffer[:] = list(buffer), []
        total = sum(item["weight"] for item in items)
        # Accumulate in buffer (arrival) order — deterministic because event
        # pop order is a pure function of the seed.
        merged = np.zeros_like(global_vec)
        for item in items:
            merged += (item["weight"] / total) * item["delta"]
        vector = global_vec + self.server_lr * merged
        entries = [{k: v for k, v in item.items() if k not in ("delta", "weight")}
                   for item in items]
        return AsyncCommit(vector=vector, entries=entries)
