"""Observer/callback API for the federated simulation loop.

:class:`~repro.fl.simulation.FederatedSimulation` used to hard-code its
bookkeeping (periodic evaluation via ``config.eval_every``, HeteroSwitch
switch counting).  Both are now ordinary :class:`Callback` instances, and any
number of additional observers — early stopping, logging, custom telemetry —
can be attached to a run without touching the loop itself.

Hook order per run::

    on_run_start
      (per round) on_round_start -> on_round_end
      (whenever the global model is evaluated) on_evaluate
    on_run_end

Callbacks receive the simulation instance, so they can read the config,
trigger an evaluation (``sim.evaluate()``), request a graceful stop
(``sim.request_stop()``), or write run-level results into the history
(``sim.history``).
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional

import numpy as np

from ..registry import Registry
from .training import ClientResult

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (simulation imports us)
    from .simulation import FederatedSimulation, FLHistory, RoundRecord

__all__ = [
    "Callback",
    "CallbackList",
    "SwitchTelemetry",
    "FaultTelemetry",
    "PeriodicEvaluation",
    "EarlyStopping",
    "RoundLogger",
    "CheckpointCallback",
    "CALLBACK_REGISTRY",
    "create_callback",
]


class Callback:
    """Base class: every hook is a no-op, subclasses override what they need."""

    name = "callback"

    def on_run_start(self, sim: "FederatedSimulation", history: "FLHistory") -> None:
        """Called once before the first round."""

    def on_round_start(self, sim: "FederatedSimulation", round_index: int) -> None:
        """Called before clients are sampled for ``round_index``."""

    def on_round_end(self, sim: "FederatedSimulation", record: "RoundRecord",
                     results: List[ClientResult]) -> None:
        """Called after aggregation, with the round's record and client results."""

    def on_event(self, sim, info: Dict[str, object]) -> None:
        """Called by the asynchronous loop for every virtual-clock occurrence.

        ``info`` always carries ``kind`` (``dispatch``/``completion``/
        ``lost``/``dropout``/``rejoin``/``commit``) and ``time`` (virtual
        seconds); event-specific keys (``client_id``, ``job_id``,
        ``staleness``, ``version``...) ride along.  Synchronous runs never
        fire this hook.
        """

    def on_evaluate(self, sim: "FederatedSimulation", round_index: int,
                    metrics: Dict[str, float]) -> None:
        """Called whenever the global model is evaluated on the test sets."""

    def on_run_end(self, sim: "FederatedSimulation", history: "FLHistory") -> None:
        """Called once after the final evaluation."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


class CallbackList(Callback):
    """Dispatches every hook to an ordered list of callbacks.

    Every callback sees every hook: an exception in one callback no longer
    skips the rest of the list (telemetry keeps counting even if, say, a
    checkpoint write fails).  The *first* exception is re-raised after the
    remaining callbacks ran, so failures still propagate to the loop.
    """

    def __init__(self, callbacks: Optional[Iterable[Callback]] = None) -> None:
        self.callbacks: List[Callback] = list(callbacks or [])

    def append(self, callback: Callback) -> None:
        self.callbacks.append(callback)

    def _dispatch(self, hook: str, *args) -> None:
        first_error: Optional[BaseException] = None
        for callback in self.callbacks:
            try:
                getattr(callback, hook)(*args)
            except BaseException as exc:
                if first_error is None:
                    first_error = exc
        if first_error is not None:
            raise first_error

    def on_run_start(self, sim, history) -> None:
        self._dispatch("on_run_start", sim, history)

    def on_round_start(self, sim, round_index) -> None:
        self._dispatch("on_round_start", sim, round_index)

    def on_round_end(self, sim, record, results) -> None:
        self._dispatch("on_round_end", sim, record, results)

    def on_event(self, sim, info) -> None:
        self._dispatch("on_event", sim, info)

    def on_evaluate(self, sim, round_index, metrics) -> None:
        self._dispatch("on_evaluate", sim, round_index, metrics)

    def on_run_end(self, sim, history) -> None:
        self._dispatch("on_run_end", sim, history)


class SwitchTelemetry(Callback):
    """Fills per-round HeteroSwitch switch counts and records run totals.

    This is the bookkeeping the simulation loop used to hard-code: it reads
    each client result's ``metadata["switch"]`` decision and records how many
    clients applied the ISP transform (switch 1) and SWAD (switch 2).
    """

    name = "switch_telemetry"

    def on_round_end(self, sim, record, results) -> None:
        switch_info = [result.metadata.get("switch") for result in results]
        record.num_switch1 = sum(1 for s in switch_info if s is not None and s.switch1)
        record.num_switch2 = sum(1 for s in switch_info if s is not None and s.switch2)

    def on_run_end(self, sim, history) -> None:
        # Derive totals from the round records: a run resumed from a
        # checkpoint replays only the remaining rounds through this instance,
        # but its restored history carries every earlier record — so the
        # totals stay identical to an uninterrupted run.
        history.metadata["total_switch1"] = sum(r.num_switch1 for r in history.rounds)
        history.metadata["total_switch2"] = sum(r.num_switch2 for r in history.rounds)


class FaultTelemetry(Callback):
    """Records run-level fault totals.

    Per-round counts already live on each :class:`RoundRecord` (filled from
    the fault layer's report in ``run_round``); like :class:`SwitchTelemetry`,
    this callback derives run totals from the *history* at run end — so a run
    resumed from a checkpoint reports the same totals as an uninterrupted
    one.  ``history.metadata`` gains a ``"faults"`` block only when something
    actually failed, keeping fault-free histories byte-identical to runs
    without the callback.
    """

    name = "fault_telemetry"

    def on_run_end(self, sim, history) -> None:
        rounds = [r for r in history.rounds if getattr(r, "num_failures", 0)]
        if not rounds:
            return
        kinds: Dict[str, int] = {}
        for record in rounds:
            for kind, count in record.failure_kinds.items():
                kinds[kind] = kinds.get(kind, 0) + count
        history.metadata["faults"] = {
            "total_failures": sum(r.num_failures for r in rounds),
            "total_retries": sum(r.num_retries for r in rounds),
            "total_dropped": sum(len(r.dropped_clients) for r in rounds),
            "degraded_rounds": sum(1 for r in rounds if r.dropped_clients),
            "failure_kinds": kinds,
        }


class PeriodicEvaluation(Callback):
    """Evaluates the global model every ``every`` rounds (``config.eval_every``)."""

    name = "eval_every"

    def __init__(self, every: int) -> None:
        if every <= 0:
            raise ValueError("every must be positive")
        self.every = every

    def on_round_end(self, sim, record, results) -> None:
        if (record.round_index + 1) % self.every == 0:
            metrics = sim.evaluate()
            if sim.history is not None:
                sim.history.evaluations.append(metrics)


class EarlyStopping(Callback):
    """Stops the run when the monitored loss stops improving.

    Parameters
    ----------
    monitor:
        ``"ema_loss"`` (the L_EMA tracker HeteroSwitch consults) or
        ``"mean_train_loss"``.
    patience:
        Number of consecutive non-improving rounds tolerated before stopping.
    min_delta:
        Minimum decrease that counts as an improvement.
    """

    name = "early_stopping"

    _MONITORS = ("ema_loss", "mean_train_loss")

    def __init__(self, monitor: str = "ema_loss", patience: int = 5,
                 min_delta: float = 0.0) -> None:
        if monitor not in self._MONITORS:
            raise ValueError(f"monitor must be one of {self._MONITORS}, got '{monitor}'")
        if patience <= 0:
            raise ValueError("patience must be positive")
        self.monitor = monitor
        self.patience = patience
        self.min_delta = min_delta
        self.best = np.inf
        self.stale_rounds = 0
        self.stopped_at: Optional[int] = None

    def on_run_start(self, sim, history) -> None:
        # A callback instance may observe several runs; patience is per run.
        self.best = np.inf
        self.stale_rounds = 0
        self.stopped_at = None
        # A resumed run starts with a restored partial history: replay it so
        # best/patience pick up exactly where the interrupted run left off.
        # If the restored rounds already exhausted the patience (the run was
        # killed after its stopping round but before the result landed), stop
        # before training any further round — otherwise the resumed run would
        # diverge from the uninterrupted one.
        for record in history.rounds:
            if self._observe(getattr(record, self.monitor)):
                self.stopped_at = record.round_index
                sim.request_stop()

    def _observe(self, value: float) -> bool:
        """Fold one monitored value in; returns True when patience ran out."""
        if value < self.best - self.min_delta:
            self.best = value
            self.stale_rounds = 0
            return False
        self.stale_rounds += 1
        return self.stale_rounds >= self.patience

    def on_round_end(self, sim, record, results) -> None:
        if self._observe(getattr(record, self.monitor)):
            self.stopped_at = record.round_index
            sim.request_stop()

    def on_run_end(self, sim, history) -> None:
        if self.stopped_at is not None:
            history.metadata["early_stopped_at"] = self.stopped_at


class RoundLogger(Callback):
    """Prints a one-line progress summary every ``every`` rounds."""

    name = "round_logger"

    def __init__(self, every: int = 1) -> None:
        if every <= 0:
            raise ValueError("every must be positive")
        self.every = every

    def on_round_end(self, sim, record, results) -> None:
        if (record.round_index + 1) % self.every == 0:
            print(
                f"[round {record.round_index + 1}] "
                f"loss={record.mean_train_loss:.4f} ema={record.ema_loss:.4f} "
                f"switch1={record.num_switch1} switch2={record.num_switch2}"
            )


class CheckpointCallback(Callback):
    """Writes crash-safe simulation snapshots while the run progresses.

    Every ``every`` rounds (and always at run end, as ``final.npz``) the full
    simulation snapshot — global weights, strategy state, EMA tracker,
    history so far — is persisted to ``directory`` via the atomic codec of
    :mod:`repro.store.checkpoint`.  A run killed at any point resumes from
    the newest checkpoint with bitwise-identical final weights and metrics
    (see :class:`repro.store.RunStore`, which wires this callback up for
    ``Runner``/CLI runs; it is also usable standalone with a bare directory).

    Parameters
    ----------
    directory:
        Where checkpoint files go (created on first write).
    every:
        Checkpoint cadence in rounds; ``0`` writes only the final snapshot.
    """

    name = "checkpoint"

    def __init__(self, directory, every: int = 1) -> None:
        if isinstance(every, bool) or not isinstance(every, int) or every < 0:
            raise ValueError(f"every must be a non-negative integer, got {every!r}")
        self.directory = Path(directory)
        self.every = every

    def _write(self, sim: "FederatedSimulation", filename: str) -> None:
        # Local import: repro.store builds on fl.simulation's snapshot format,
        # so the dependency points store -> fl everywhere but this one hook.
        from ..store.checkpoint import write_checkpoint

        self.directory.mkdir(parents=True, exist_ok=True)
        write_checkpoint(self.directory / filename, sim.snapshot())

    def on_round_end(self, sim, record, results) -> None:
        if self.every and (record.round_index + 1) % self.every == 0:
            self._write(sim, f"round_{record.round_index + 1:05d}.npz")

    def on_run_end(self, sim, history) -> None:
        self._write(sim, "final.npz")


def _async_telemetry_factory(**kwargs) -> Callback:
    """Lazily resolve :class:`~repro.fl.async_sim.AsyncTelemetry`.

    The async subsystem imports this module; registering its telemetry
    callback through a deferred factory keeps the dependency one-way.
    """
    from .async_sim.simulation import AsyncTelemetry

    return AsyncTelemetry(**kwargs)


CALLBACK_REGISTRY: Registry[Callback] = Registry("callback", {
    "switch_telemetry": SwitchTelemetry,
    "fault_telemetry": FaultTelemetry,
    "eval_every": PeriodicEvaluation,
    "early_stopping": EarlyStopping,
    "round_logger": RoundLogger,
    "checkpoint": CheckpointCallback,
    "async_telemetry": _async_telemetry_factory,
})


def create_callback(name: str, **kwargs) -> Callback:
    """Instantiate a callback by registry name."""
    return CALLBACK_REGISTRY.create(name, **kwargs)
