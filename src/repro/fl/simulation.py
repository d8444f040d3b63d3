"""The federated-learning simulations: one scaffold and the synchronous loop.

:class:`BaseSimulation` owns what every federated run has around its loop:
the construction checks, the client executor (closed after each run when the
simulation created it), the :class:`~repro.fl.strategies.base.FLContext` with
its EMA loss tracker, the global weights as one
:class:`~repro.nn.serialization.StateLayout`-packed vector, per-device
evaluation (the fairness / domain-generalization metrics of Section 6), the
shared half of checkpoints and ``run()``'s setup and teardown.  A subclass
adds its loop and the loop's own checkpoint state.

:class:`FederatedSimulation` adds the round loop of Section 2.1: each round
the server samples ``K`` of the ``N`` clients with a
:class:`~repro.fl.sampling.ClientSampler` (a pure function of ``(seed,
round_index)``), broadcasts a read-only view of the packed global vector,
and folds the results into the new global vector with one
``aggregate_stream`` call.  The clients train through a
:class:`~repro.fl.execution.ClientExecutor` (serial or shared-memory
pool) under the fault layer
(:func:`~repro.fl.faults.run_tolerant_round`), which fails fast without a
fault policy and retries and degrades to a quorum under one.  Every backend
gives bit-identical runs: client randomness derives from ``(seed, round,
client_id)`` and results are folded in selection order.  The event loop on
the same base is :class:`~repro.fl.async_sim.simulation.AsyncFederatedSimulation`.
"""

from __future__ import annotations

import dataclasses
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import (Callable, ClassVar, Dict, List, Mapping, Optional, Sequence,
                    Tuple, Union)

import numpy as np

from ..core.ema import EMALossTracker
from ..data.dataset import ArrayDataset
from ..data.partition import ClientSpec
from ..nn.engine import dtype_mode
from ..nn.layers import Module
from ..nn.serialization import StateLayout
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

__all__ = ["RoundRecord", "FLHistory", "BaseSimulation", "FederatedSimulation",
           "history_from_dict", "check_checkpoint_dtype"]

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

    #: The record type of ``rounds``, which :meth:`from_dict` rebuilds.
    record_type: ClassVar[type] = RoundRecord
    #: The ``kind`` marker of serialized histories and checkpoints (``None``
    #: for synchronous runs, which carry no ``kind`` key).
    kind: ClassVar[Optional[str]] = None

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
        data = {
            "strategy": self.strategy,
            "rounds": [record.to_dict() for record in self.rounds],
            "per_device_metric": dict(self.per_device_metric),
            "evaluations": [dict(e) for e in self.evaluations],
            "metadata": dict(self.metadata),
        }
        if self.kind is not None:
            data["kind"] = self.kind
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FLHistory":
        """Inverse of :meth:`to_dict` (used by checkpoint restore)."""
        return cls(
            strategy=str(data["strategy"]),
            rounds=[cls.record_type.from_dict(r) for r in data.get("rounds", [])],
            per_device_metric=dict(data.get("per_device_metric", {})),
            evaluations=[dict(e) for e in data.get("evaluations", [])],
            metadata=dict(data.get("metadata", {})),
        )


def history_from_dict(data: Dict[str, object]) -> "FLHistory":
    """Rebuild a serialized history as the class its ``kind`` marker names.

    The run store and runner use this instead of :meth:`FLHistory.from_dict`
    so that an asynchronous run resumes with its commit records.
    """
    from .async_sim.simulation import AsyncFLHistory

    cls = AsyncFLHistory if data.get("kind") == AsyncFLHistory.kind else FLHistory
    return cls.from_dict(data)


def check_checkpoint_dtype(state: Mapping[str, object], dtype: str) -> None:
    """Refuse checkpoint weights held in another dtype than the run's ``dtype``.

    Checkpoints are dtype-exact (the npz codec preserves array dtypes), and
    packing would cast silently, changing the run's numerics mid-run.
    """
    wrong = sorted({str(np.asarray(value).dtype) for value in state.values()}
                   - {str(np.dtype(dtype))})
    if wrong:
        raise ValueError(
            f"checkpoint holds {', '.join(wrong)} weights but this run's config "
            f"dtype is '{dtype}'; cross-dtype resume is refused — restart "
            f"the run fresh or keep the original dtype")


class BaseSimulation:
    """A federated run around its loop: everything but the loop itself.

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
        FL hyperparameters; ``config.num_rounds`` is the default run budget.
    callbacks:
        Extra observers attached to every :meth:`run` (the built-in switch
        telemetry, fault telemetry and ``eval_every`` bookkeeping are always
        present).
    executor:
        Client-execution backend fanning out the per-client training step: a
        :class:`~repro.fl.execution.ClientExecutor` instance, a registry name
        (``"serial"`` or ``"shm"``), or ``None`` for serial.
        A bare name uses one worker per CPU core; pass a constructed instance
        (``create_executor("shm", max_workers=4)``) to cap the pool.
        Backends the simulation creates itself are closed at the end of each
        :meth:`run`; instances passed in are the caller's to close.
    """

    #: The history class a run returns; its ``kind`` marks checkpoints too.
    _history_cls: ClassVar[type] = FLHistory
    #: What one unit of the run budget is called in messages.
    _unit: ClassVar[str] = "round"
    #: Simulated-time source registered on the tracer (event loops only).
    _virtual_clock: Optional[Callable[[], float]] = None

    def __init__(
        self,
        model_fn: ModelFactory,
        clients: Sequence[ClientSpec],
        test_sets: Mapping[str, ArrayDataset],
        strategy: Strategy,
        config: FLConfig,
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
        self.model_fn = model_fn
        self.clients = list(clients)
        self.test_sets = dict(test_sets)
        self.strategy = strategy
        self.config = config
        self.callbacks = list(callbacks)
        if executor is None or isinstance(executor, str):
            self._executor = create_executor(executor or "serial")
            self._owns_executor = True
        else:
            self._executor = executor
            self._owns_executor = False

        with dtype_mode(config.dtype):
            template = model_fn().state_dict()
        self._layout = StateLayout(template)
        self._global_vec = self._layout.pack(template)
        self.context = FLContext(
            config=config,
            ema=EMALossTracker(alpha=config.ema_alpha),
            layout=self._layout,
        )
        self._history: Optional[FLHistory] = None
        self._active_callbacks: Optional[CallbackList] = None
        self._stop_requested = False
        # (history, first round or commit) loaded by restore() for run().
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
        return {key: value.copy()
                for key, value in self._layout.unpack(self._global_vec).items()}

    @property
    def history(self) -> Optional[FLHistory]:
        """The history of the in-progress (or most recent) :meth:`run`."""
        return self._history

    def global_model(self) -> Module:
        """A model instance loaded with the current global weights."""
        with dtype_mode(self.config.dtype):
            model = self.model_fn()
        model.load_state_dict(self._layout.unpack(self._global_vec))
        return model

    def request_stop(self) -> None:
        """Ask :meth:`run` to stop gracefully after the current round or commit."""
        self._stop_requested = True

    def _obs_span(self, name: str, **attrs):
        """A tracer span when tracing is attached, else a no-op context."""
        if self.tracer is None:
            return nullcontext()
        return self.tracer.span(name, **attrs)

    def _eval_index(self) -> int:
        """The index :meth:`evaluate` reports to ``on_evaluate``."""
        return self.context.round_index

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
            self._active_callbacks.on_evaluate(self, self._eval_index(), metrics)
        return metrics

    # -- checkpoint / resume ------------------------------------------- #
    def snapshot(self) -> Dict[str, object]:
        """Everything a bit-identical resume needs, as a checkpointable tree.

        The tree holds the strategy name and seed, the global weights, the
        strategy's persistent state, the EMA loss tracker, the history so far
        and the loop's own state.  Restored into a freshly-built simulation of
        the same spec, it continues the run exactly (see :mod:`repro.store`).
        Only callable while a run is active or just finished: the snapshot is
        anchored to the run's history.
        """
        if self._history is None:
            raise RuntimeError("snapshot() requires an active or completed run")
        return {
            # First, so a loop can settle pending work before the rest is read.
            **self._loop_state(),
            "strategy": self.strategy.name,
            "seed": self.config.seed,
            "global_state": self.global_state,
            "strategy_state": self.strategy.state_dict(self.context),
            "ema": self.context.ema.state_dict(),
            "history": self._history.to_dict(),
        }

    def restore(self, snapshot: Mapping[str, object]) -> None:
        """Load a :meth:`snapshot` so the next :meth:`run` continues from it.

        The snapshot must come from a simulation of the same kind, strategy
        and seed, and its weights must have this model's keys, shapes and
        dtype; anything else would silently break the determinism guarantee,
        so mismatches raise before the weights are loaded.
        """
        kind = snapshot.get("kind")
        if kind != self._history_cls.kind:
            raise ValueError(
                f"checkpoint of kind {kind!r} cannot restore into a simulation "
                f"of kind {self._history_cls.kind!r}: synchronous and "
                f"asynchronous runs do not share checkpoints"
            )
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
        check_checkpoint_dtype(snapshot["global_state"], self.config.dtype)
        # pack() refuses a missing or extra key and a reshaped tensor.
        global_vec = self._layout.pack(snapshot["global_state"])
        start = self._load_loop_state(snapshot)
        self._global_vec = global_vec
        self.strategy.load_state_dict(self.context, snapshot["strategy_state"])
        self.context.ema.load_state_dict(snapshot["ema"])
        self._resume = (self._history_cls.from_dict(snapshot["history"]), start)

    def _loop_state(self) -> Dict[str, object]:
        """The loop's own entries of the :meth:`snapshot` tree."""
        raise NotImplementedError

    def _load_loop_state(self, snapshot: Mapping[str, object]) -> int:
        """Load :meth:`_loop_state`'s entries; return the first step to run."""
        raise NotImplementedError

    # -- the run ------------------------------------------------------- #
    def _loop(self, start: int, target: int, callbacks: CallbackList) -> None:
        """Advance the run from step ``start`` until ``target`` steps are done."""
        raise NotImplementedError

    def _default_callbacks(self) -> List[Callback]:
        """The bookkeeping formerly hard-coded in the loop, as callbacks."""
        defaults: List[Callback] = [SwitchTelemetry()]
        if self.config.fault_policy is not None:
            defaults.append(FaultTelemetry())
        if self.config.eval_every:
            defaults.append(PeriodicEvaluation(self.config.eval_every))
        return defaults

    def _run(self, budget: Optional[int]) -> FLHistory:
        """:meth:`run` for ``budget`` rounds or commits (``config.num_rounds``)."""
        if self._history is not None and self._resume is None:
            # Trained weights and a fed EMA are no fresh start.
            raise ValueError("this simulation has already run; restore() a "
                             "snapshot to continue it")
        target = budget if budget is not None else self.config.num_rounds
        if target <= 0:
            raise ValueError(f"num_{self._unit}s must be positive")
        if self._resume is not None:
            history, start = self._resume
            if start > target:
                # Leave the restore in place: the caller can retry run() with
                # a sufficient budget instead of silently starting over.
                raise ValueError(
                    f"checkpoint is at {self._unit} {start} but the run has "
                    f"only {target} {self._unit}(s)"
                )
            self._resume = None
        else:
            history, start = self._history_cls(strategy=self.strategy.name), 0
        callbacks = CallbackList([*self._default_callbacks(), *self.callbacks])
        if self.tracer is None and (self.config.trace or self.config.profile):
            self.tracer = Tracer()
        if self.tracer is not None:
            if self._virtual_clock is not None:
                self.tracer.set_virtual_clock(self._virtual_clock)
            if start > 0:
                # Steps [0, start) ran in an earlier process; annotate the
                # gap so a resumed run's trace is well-formed rather than
                # looking like it silently skipped them.
                self.tracer.instant("resume_gap", next_round=start)
        self._history = history
        self._active_callbacks = callbacks
        self._stop_requested = False
        try:
            with self._obs_span("run", strategy=self.strategy.name,
                                seed=self.config.seed, rounds=target):
                callbacks.on_run_start(self, history)
                self._loop(start, target, callbacks)
                history.per_device_metric = self.evaluate()
                callbacks.on_run_end(self, history)
        finally:
            self._active_callbacks = None
            if self._owns_executor:
                # Release worker pools; the executor lazily re-creates them if
                # this simulation runs again.
                self._executor.close()
        return history


class FederatedSimulation(BaseSimulation):
    """Synchronous rounds on :class:`BaseSimulation`.

    Parameters are :class:`BaseSimulation`'s, plus:

    sampler:
        Per-round client sampler; defaults to uniform-without-replacement
        derived from ``(config.seed, round_index)``.
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
        if getattr(strategy, "requires_async", False):
            raise ValueError(
                f"strategy '{strategy.name}' is asynchronous-only; run it with "
                f"AsyncFederatedSimulation (RunSpec kind='federated_async')"
            )
        super().__init__(model_fn, clients, test_sets, strategy, config,
                         callbacks=callbacks, executor=executor)
        self.sampler = sampler if sampler is not None else UniformSampler()
        self.sampler.bind(self.clients)

    def _loop_state(self) -> Dict[str, object]:
        # Client sampling and per-client RNG streams are pure functions of
        # (seed, round), so the next round index is the loop's whole state.
        rounds = self._history.rounds
        return {"next_round": rounds[-1].round_index + 1 if rounds else 0}

    def _load_loop_state(self, snapshot: Mapping[str, object]) -> int:
        next_round = int(snapshot["next_round"])
        self.context.round_index = max(next_round - 1, 0)
        return next_round

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
        # Clients and the fold read the global weights through one read-only
        # view: a strategy that writes into its broadcast fails loudly
        # instead of corrupting the server's weights.
        broadcast = self._global_vec.view()
        broadcast.flags.writeable = False
        # One path for every backend and policy: the fault layer runs the
        # client jobs (fail-fast without a policy, retries and quorum under
        # one) and hands back the cohort whose results the strategy folds
        # into the aggregate one at a time, in selection order.  Training
        # and the fold interleave, so they trace as one "clients" span.
        with self._obs_span("clients", round=round_index,
                            count=len(selected)) as clients_span:
            cohort, results, report = run_tolerant_round(
                self._executor, self.strategy, self.model_fn, selected,
                broadcast, self.context, self.config.fault_policy)
            # Aggregation (and the strategies' stream-order checks) must
            # see exactly the surviving cohort: a degraded round is then
            # bitwise-identical to a round that selected only the survivors.
            # The fold runs under the configured compute dtype.
            with dtype_mode(self.config.dtype):
                self._global_vec, results = self.strategy.aggregate_stream(
                    broadcast, cohort, results, self.context)
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

    def _loop(self, start: int, target: int, callbacks: CallbackList) -> None:
        for round_index in range(start, target):
            # Checked before the round (not after) so a stop requested
            # during on_run_start — e.g. early stopping re-triggered by a
            # restored history — prevents any further training.
            if self._stop_requested:
                break
            self.run_round(round_index, callbacks=callbacks)

    def run(self, num_rounds: Optional[int] = None) -> FLHistory:
        """Run the full simulation and return its history.

        After :meth:`restore`, the run continues from the checkpoint's next
        round with the restored history, instead of starting from round 0.
        Without one, a second call raises ``ValueError``.
        """
        return self._run(num_rounds)
