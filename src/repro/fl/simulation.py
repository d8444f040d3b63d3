"""The federated-learning simulation loop (server + round orchestration).

:class:`FederatedSimulation` reproduces the standard cross-device FL protocol
of Section 2.1: each round the server samples ``K`` of the ``N`` clients,
broadcasts the global weights, collects locally-trained results via the active
strategy, aggregates them, and updates the EMA of the aggregated training loss
that HeteroSwitch's switching consults.  Per-device evaluation on held-out test
sets produces the fairness / domain-generalization metrics of Section 6.

Round bookkeeping (switch counting, periodic evaluation) is implemented with
the observer API of :mod:`repro.fl.callbacks`; client selection is delegated to
a pluggable :class:`~repro.fl.sampling.ClientSampler` whose draws depend only
on ``(seed, round_index)`` so any round can be replayed in isolation.

Every round runs one pipeline.  The per-client local-training step is fanned
out through a pluggable :class:`~repro.fl.execution.ClientExecutor` (serial,
thread pool, or shared-memory process pool), whose one protocol yields each
job's outcome in selection order; the fault layer
(:func:`~repro.fl.faults.run_tolerant_round`) turns outcomes into the round's
cohort — failing fast without a fault policy, retrying and degrading to a
quorum under one — and the strategy folds the cohort's results into the new
global model through one ``aggregate_stream`` call.  Every backend produces
bit-identical runs because client randomness derives from ``(seed, round,
client_id)`` and results are reduced in selection order (see
:mod:`repro.fl.execution` for the full determinism contract).
"""

from __future__ import annotations

import dataclasses
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.ema import EMALossTracker
from ..data.dataset import ArrayDataset
from ..data.partition import ClientSpec
from ..nn.engine import dtype_mode
from ..nn.layers import Module
from ..nn.serialization import get_weights, set_weights
from ..obs import Tracer, merge_client_spans
from .callbacks import (Callback, CallbackList, FaultTelemetry,
                        PeriodicEvaluation, SwitchTelemetry)
from .config import FLConfig
from .execution import ClientExecutor, create_executor
from .faults import run_tolerant_round
from .metrics import summarize_per_device
from .sampling import ClientSampler, UniformSampler
from .strategies.base import FLContext, Strategy
from .training import evaluate_metric

__all__ = ["RoundRecord", "FLHistory", "FederatedSimulation", "history_from_dict"]

StateDict = Dict[str, np.ndarray]
ModelFactory = Callable[[], Module]


@dataclass
class RoundRecord:
    """Bookkeeping for one communication round."""

    round_index: int
    selected_clients: List[int]
    mean_train_loss: float
    ema_loss: float
    num_switch1: int = 0
    num_switch2: int = 0
    # Fault-tolerance bookkeeping (repro.fl.faults): zero/empty on fault-free
    # rounds, so histories written before this field existed load unchanged.
    num_failures: int = 0
    num_retries: int = 0
    dropped_clients: List[int] = field(default_factory=list)
    failure_kinds: Dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe rendering (floats round-trip exactly through ``json``)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "RoundRecord":
        """Inverse of :meth:`to_dict`."""
        return cls(
            round_index=int(data["round_index"]),
            selected_clients=[int(c) for c in data["selected_clients"]],
            mean_train_loss=float(data["mean_train_loss"]),
            ema_loss=float(data["ema_loss"]),
            num_switch1=int(data.get("num_switch1", 0)),
            num_switch2=int(data.get("num_switch2", 0)),
            num_failures=int(data.get("num_failures", 0)),
            num_retries=int(data.get("num_retries", 0)),
            dropped_clients=[int(c) for c in data.get("dropped_clients", [])],
            failure_kinds={str(k): int(v)
                           for k, v in dict(data.get("failure_kinds", {})).items()},
        )


@dataclass
class FLHistory:
    """Full record of an FL run: per-round stats and final per-device metrics."""

    strategy: str
    rounds: List[RoundRecord] = field(default_factory=list)
    per_device_metric: Dict[str, float] = field(default_factory=dict)
    evaluations: List[Dict[str, float]] = field(default_factory=list)
    metadata: Dict[str, object] = field(default_factory=dict)

    @property
    def summary(self) -> Dict[str, float]:
        """Worst-case / variance / average of the final per-device metric."""
        return summarize_per_device(self.per_device_metric)

    @property
    def final_train_loss(self) -> float:
        if not self.rounds:
            raise RuntimeError("no rounds recorded")
        return self.rounds[-1].mean_train_loss

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe rendering of the full history.

        ``metadata`` must hold JSON-serializable values for the run store to
        persist it; the built-in callbacks only write ints/floats/lists.
        """
        return {
            "strategy": self.strategy,
            "rounds": [record.to_dict() for record in self.rounds],
            "per_device_metric": dict(self.per_device_metric),
            "evaluations": [dict(e) for e in self.evaluations],
            "metadata": dict(self.metadata),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FLHistory":
        """Inverse of :meth:`to_dict` (used by checkpoint restore)."""
        return cls(
            strategy=str(data["strategy"]),
            rounds=[RoundRecord.from_dict(r) for r in data.get("rounds", [])],
            per_device_metric=dict(data.get("per_device_metric", {})),
            evaluations=[dict(e) for e in data.get("evaluations", [])],
            metadata=dict(data.get("metadata", {})),
        )


def history_from_dict(data: Dict[str, object]) -> "FLHistory":
    """Reconstruct a serialized history, dispatching on its ``kind`` marker.

    Asynchronous runs serialize their histories with ``kind:
    "federated_async"`` (their rounds are
    :class:`~repro.fl.async_sim.simulation.CommitRecord`\\ s); everything else
    is a plain :class:`FLHistory`.  The run store and runner use this instead
    of :meth:`FLHistory.from_dict` so resume reconstructs the right class.
    """
    if data.get("kind") == "federated_async":
        from .async_sim.simulation import AsyncFLHistory

        return AsyncFLHistory.from_dict(data)
    return FLHistory.from_dict(data)


class FederatedSimulation:
    """Orchestrates a full FL run for a given strategy.

    Parameters
    ----------
    model_fn:
        Zero-argument callable building a fresh model; every run starts from
        the same initialization (the factory should use a fixed seed).
    clients:
        The client population (id, device type, local dataset).
    test_sets:
        Per-device held-out datasets used for the final evaluation.
    strategy:
        The FL algorithm under test.
    config:
        FL hyperparameters.
    sampler:
        Per-round client sampler; defaults to uniform-without-replacement
        derived from ``(config.seed, round_index)``.
    callbacks:
        Extra observers attached to every :meth:`run` (the built-in switch
        telemetry and ``eval_every`` bookkeeping are always present).
    executor:
        Client-execution backend fanning out the per-client training step: a
        :class:`~repro.fl.execution.ClientExecutor` instance, a registry name
        (``"serial"``, ``"thread"``, ``"shm"``), or ``None`` for serial.
        A bare name uses one worker per CPU core; pass a constructed instance
        (``create_executor("thread", max_workers=4)``) to cap the pool.
        Backends the simulation creates itself are closed at the end of each
        :meth:`run`; instances passed in are the caller's to close.
    """

    def __init__(
        self,
        model_fn: ModelFactory,
        clients: Sequence[ClientSpec],
        test_sets: Mapping[str, ArrayDataset],
        strategy: Strategy,
        config: FLConfig,
        sampler: Optional[ClientSampler] = None,
        callbacks: Sequence[Callback] = (),
        executor: Optional[Union[str, ClientExecutor]] = None,
    ) -> None:
        if not clients:
            raise ValueError("client population must not be empty")
        if not test_sets:
            raise ValueError("test_sets must not be empty")
        if config.num_clients != len(clients):
            # Keep the config authoritative but consistent with reality.
            raise ValueError(
                f"config.num_clients ({config.num_clients}) does not match the "
                f"provided client population ({len(clients)})"
            )
        if getattr(strategy, "requires_async", False):
            raise ValueError(
                f"strategy '{strategy.name}' is asynchronous-only; run it with "
                f"AsyncFederatedSimulation (RunSpec kind='federated_async')"
            )
        self.model_fn = model_fn
        self.clients = list(clients)
        self.test_sets = dict(test_sets)
        self.strategy = strategy
        self.config = config
        self.sampler = sampler if sampler is not None else UniformSampler()
        self.sampler.bind(self.clients)
        self.callbacks = list(callbacks)
        if executor is None or isinstance(executor, str):
            self._executor = create_executor(executor or "serial")
            self._owns_executor = True
        else:
            self._executor = executor
            self._owns_executor = False

        with dtype_mode(config.dtype):
            self._global_state: StateDict = get_weights(model_fn())
        self.context = FLContext(
            config=config,
            ema=EMALossTracker(alpha=config.ema_alpha),
        )
        self._history: Optional[FLHistory] = None
        self._active_callbacks: Optional[CallbackList] = None
        self._stop_requested = False
        self._resume: Optional[Tuple[FLHistory, int]] = None
        # Run-level trace collector (repro.obs).  Attached externally (the
        # Runner) or auto-created by run() when config.trace/profile is set;
        # purely observational, so it never influences results.
        self.tracer: Optional[Tracer] = None

    # ------------------------------------------------------------------ #
    @property
    def executor(self) -> ClientExecutor:
        """The client-execution backend fanning out local training."""
        return self._executor

    @property
    def global_state(self) -> StateDict:
        """Copy of the current global model weights."""
        return {key: value.copy() for key, value in self._global_state.items()}

    @property
    def history(self) -> Optional[FLHistory]:
        """The history of the in-progress (or most recent) :meth:`run`."""
        return self._history

    def global_model(self) -> Module:
        """A model instance loaded with the current global weights."""
        with dtype_mode(self.config.dtype):
            model = self.model_fn()
        set_weights(model, self._global_state)
        return model

    def request_stop(self) -> None:
        """Ask :meth:`run` to stop gracefully after the current round."""
        self._stop_requested = True

    # -- checkpoint / resume ------------------------------------------- #
    def snapshot(self) -> Dict[str, object]:
        """Everything a bit-identical resume needs, as a checkpointable tree.

        The tree holds the global weights, the strategy's persistent state
        (:meth:`~repro.fl.strategies.base.Strategy.state_dict`), the EMA loss
        tracker and the history so far.  Client sampling and per-client RNG
        streams are pure functions of ``(seed, round)``, so they need no
        state: restoring this snapshot into a freshly-built simulation of the
        same spec and continuing from ``next_round`` reproduces the
        uninterrupted run exactly (see :mod:`repro.store`).

        Only callable while a run is active (or just finished): the snapshot
        is anchored to the run's history.
        """
        if self._history is None:
            raise RuntimeError("snapshot() requires an active or completed run")
        history = self._history
        next_round = history.rounds[-1].round_index + 1 if history.rounds else 0
        return {
            "strategy": self.strategy.name,
            "seed": self.config.seed,
            "next_round": next_round,
            "global_state": self.global_state,
            "strategy_state": self.strategy.state_dict(self.context),
            "ema": self.context.ema.state_dict(),
            "history": history.to_dict(),
        }

    def restore(self, snapshot: Mapping[str, object]) -> None:
        """Load a :meth:`snapshot` so the next :meth:`run` continues from it.

        The snapshot must come from a simulation of the same strategy and
        seed; anything else would silently break the determinism guarantee,
        so mismatches raise instead.
        """
        if snapshot["strategy"] != self.strategy.name:
            raise ValueError(
                f"checkpoint was written by strategy '{snapshot['strategy']}', "
                f"this simulation runs '{self.strategy.name}'"
            )
        if int(snapshot["seed"]) != self.config.seed:
            raise ValueError(
                f"checkpoint was written at seed {snapshot['seed']}, "
                f"this simulation runs seed {self.config.seed}"
            )
        self._global_state = {key: np.asarray(value).copy()
                              for key, value in snapshot["global_state"].items()}
        self.strategy.load_state_dict(self.context, snapshot["strategy_state"])
        self.context.ema.load_state_dict(snapshot["ema"])
        next_round = int(snapshot["next_round"])
        self.context.round_index = max(next_round - 1, 0)
        self._resume = (FLHistory.from_dict(snapshot["history"]), next_round)

    # ------------------------------------------------------------------ #
    def select_clients(self, round_index: int) -> List[ClientSpec]:
        """Sample this round's participants via the configured sampler.

        The draw is a pure function of ``(config.seed, round_index)``, so
        replaying a single round reproduces the full run's selection.
        """
        k = min(self.config.clients_per_round, len(self.clients))
        indices = self.sampler.select(len(self.clients), k, round_index, self.config.seed)
        return [self.clients[i] for i in indices]

    def run_round(self, round_index: int, callbacks: Optional[CallbackList] = None) -> RoundRecord:
        """Execute one communication round and return its record.

        When called standalone (outside :meth:`run`), only switch telemetry is
        attached — run-level bookkeeping like periodic evaluation belongs to
        the run whose history it writes into.
        """
        if callbacks is None:
            callbacks = CallbackList([SwitchTelemetry()])
        self.context.round_index = round_index
        callbacks.on_round_start(self, round_index)
        selected = self.select_clients(round_index)
        # One path for every backend and policy: the fault layer runs the
        # client jobs (fail-fast without a policy, retries and quorum under
        # one) and hands back the cohort whose results the strategy folds
        # into the aggregate one at a time, in selection order.  Training
        # and the fold interleave, so they trace as one "clients" span.
        with self._obs_span("clients", round=round_index,
                            count=len(selected)) as clients_span:
            cohort, results, report = run_tolerant_round(
                self._executor, self.strategy, self.model_fn, selected,
                self.global_state, self.context, self.config.fault_policy)
            # Aggregation (and the strategies' stream-order checks) must
            # see exactly the surviving cohort: a degraded round is then
            # bitwise-identical to a round that selected only the survivors.
            # The fold runs under the configured compute dtype.
            with dtype_mode(self.config.dtype):
                self._global_state, results = self.strategy.aggregate_stream(
                    self._global_state, cohort, results, self.context)
        with self._obs_span("aggregate", round=round_index, survivors=len(cohort)):
            with dtype_mode(self.config.dtype):
                self.strategy.on_round_end(self.context, results)
        if self.tracer is not None:
            merge_client_spans(
                self.tracer,
                clients_span.start,
                results,
                {spec.client_id: spec.device for spec in selected})

        record = RoundRecord(
            round_index=round_index,
            selected_clients=[spec.client_id for spec in selected],
            mean_train_loss=float(np.mean([r.train_loss for r in results])),
            ema_loss=float(self.context.ema.value),
        )
        if report is not None:
            record.num_failures = report.num_failures
            record.num_retries = report.num_retries
            record.dropped_clients = list(report.dropped_clients)
            record.failure_kinds = dict(report.failure_kinds)
            if self.tracer is not None and report.any_faults:
                self.tracer.instant(
                    "round_faults", round=round_index,
                    failures=report.num_failures, retries=report.num_retries,
                    dropped=len(report.dropped_clients))
        # When called from run(), the record joins the history *before* the
        # callbacks fire, so observers (checkpointing above all) see a history
        # that already includes the round they are reacting to.  Standalone
        # calls never touch a run's history.
        if callbacks is self._active_callbacks and self._history is not None:
            self._history.rounds.append(record)
        callbacks.on_round_end(self, record, results)
        return record

    def _obs_span(self, name: str, **attrs):
        """A tracer span when tracing is attached, else a no-op context."""
        if self.tracer is None:
            return nullcontext()
        return self.tracer.span(name, **attrs)

    def evaluate(self) -> Dict[str, float]:
        """Evaluate the current global model on every per-device test set."""
        with self._obs_span("evaluate", devices=len(self.test_sets)):
            model = self.global_model()
            # Evaluation forwards under the same dtype as training so
            # test batches are fed to the model in its own compute dtype.
            with dtype_mode(self.config.dtype):
                metrics = {
                    device: evaluate_metric(model, dataset, self.config.task)
                    for device, dataset in self.test_sets.items()
                }
        if self._active_callbacks is not None:
            self._active_callbacks.on_evaluate(self, self.context.round_index, metrics)
        return metrics

    def _default_callbacks(self) -> List[Callback]:
        """The bookkeeping formerly hard-coded in the loop, as callbacks."""
        defaults: List[Callback] = [SwitchTelemetry()]
        if self.config.fault_policy is not None:
            defaults.append(FaultTelemetry())
        if self.config.eval_every:
            defaults.append(PeriodicEvaluation(self.config.eval_every))
        return defaults

    def run(self, num_rounds: Optional[int] = None) -> FLHistory:
        """Run the full simulation and return its history.

        After :meth:`restore`, the run continues from the checkpoint's next
        round with the restored history, instead of starting from round 0.
        """
        rounds = num_rounds if num_rounds is not None else self.config.num_rounds
        if rounds <= 0:
            raise ValueError("num_rounds must be positive")
        if self._resume is not None:
            history, start_round = self._resume
            if start_round > rounds:
                # Leave the restore in place: the caller can retry run() with
                # a sufficient round budget instead of silently starting over.
                raise ValueError(
                    f"checkpoint is at round {start_round} but the run has "
                    f"only {rounds} round(s)"
                )
            self._resume = None
        else:
            history, start_round = FLHistory(strategy=self.strategy.name), 0
        callbacks = CallbackList([*self._default_callbacks(), *self.callbacks])
        if self.tracer is None and (self.config.trace or self.config.profile):
            self.tracer = Tracer()
        if self.tracer is not None and start_round > 0:
            # Rounds [0, start_round) ran in an earlier process; annotate the
            # gap so a resumed run's trace is well-formed rather than looking
            # like it silently skipped rounds.
            self.tracer.instant("resume_gap", next_round=start_round)
        self._history = history
        self._active_callbacks = callbacks
        self._stop_requested = False
        try:
            with self._obs_span("run", strategy=self.strategy.name,
                                seed=self.config.seed, rounds=rounds):
                callbacks.on_run_start(self, history)
                for round_index in range(start_round, rounds):
                    # Checked before the round (not after) so a stop requested
                    # during on_run_start — e.g. early stopping re-triggered by
                    # a restored history — prevents any further training.
                    if self._stop_requested:
                        break
                    self.run_round(round_index, callbacks=callbacks)
                history.per_device_metric = self.evaluate()
                callbacks.on_run_end(self, history)
        finally:
            self._active_callbacks = None
            if self._owns_executor:
                # Release worker pools; the executor lazily re-creates them if
                # this simulation runs again.
                self._executor.close()
        return history
