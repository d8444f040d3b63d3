"""Event-driven asynchronous federated simulation on a deterministic clock.

:class:`AsyncFederatedSimulation` adds an event loop to
:class:`~repro.fl.simulation.BaseSimulation`, which owns everything around
it.  The loop replaces the synchronous round barrier with a virtual clock:
the server keeps up to ``concurrency`` clients training at once, each
dispatched the *current* global weights; completions arrive after per-device
latencies drawn from :mod:`repro.devices.latency`; the strategy
(:class:`~repro.fl.async_sim.strategies.AsyncStrategy`) folds each update in
with a staleness discount and decides when the global version advances.
Devices churn — drop offline mid-training (their update is abandoned) and
rejoin later — according to their availability duty cycles.

**Determinism contract.**  Nothing reads wall-clock time.  Event timestamps,
tie-breaking, availability toggles, and dispatch choices are all pure
functions of the run seed via the named streams of
:func:`~repro.fl.async_sim.events.event_rng`; local training derives its
randomness from ``(seed, batch, client)`` exactly as the synchronous path
does.  Real parallelism comes from the standard
:class:`~repro.fl.execution.ClientExecutor` backends: pending dispatches that
share a broadcast version form a *batch*, and a batch is (incrementally)
flushed through the executor the moment one of its completions pops.  Because
each client's update is a pure function of (broadcast weights, derived seed),
when the flush happens — eagerly, lazily, serially or on a worker pool —
cannot change any value, so every backend produces bit-identical runs.

**Checkpoint/resume.**  :meth:`snapshot` flushes pending batches (making all
in-flight results concrete arrays) and adds the clock, version, event queue,
job table, availability state and every RNG stream counter to the base's
tree; restoring it into a fresh simulation of the same spec continues the
run with bit-identical commits.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Set, Union

import numpy as np

from ...data.dataset import ArrayDataset
from ...data.partition import ClientSpec
from ...devices.latency import DeviceLatencyModel, LatencyRegime, build_latency_models
from ...obs import MetricsRegistry, merge_client_spans
from ..callbacks import Callback, CallbackList
from ..config import FLConfig
from ..execution import ClientExecutor
from ..faults import run_tolerant_round
from ..simulation import BaseSimulation, FLHistory, ModelFactory, RoundRecord
from ..training import ClientResult
from .events import EventQueue, SimEvent, event_rng
from .strategies import AsyncCommit, AsyncStrategy, AsyncUpdate

__all__ = [
    "CommitRecord",
    "AsyncFLHistory",
    "AsyncFederatedSimulation",
    "AsyncTelemetry",
]

@dataclass
class CommitRecord(RoundRecord):
    """One server commit on the virtual clock.

    Subclasses :class:`~repro.fl.simulation.RoundRecord` — ``round_index`` is
    the commit index and ``selected_clients`` the clients whose updates the
    commit folded in — so round-based callbacks (checkpointing, early
    stopping, logging) and the run store work unchanged.  Adds the commit's
    virtual timestamp and the per-update staleness values.
    """

    time: float = 0.0
    staleness: List[int] = field(default_factory=list)

    @property
    def mean_staleness(self) -> float:
        return float(np.mean(self.staleness)) if self.staleness else 0.0

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "CommitRecord":
        base = RoundRecord.from_dict(data)
        return cls(
            **dataclasses.asdict(base),
            time=float(data.get("time", 0.0)),
            staleness=[int(s) for s in data.get("staleness", [])],
        )


@dataclass
class AsyncFLHistory(FLHistory):
    """Run history whose ``rounds`` are :class:`CommitRecord`\\ s.

    Serialized dicts carry ``kind: "federated_async"`` so
    :func:`repro.fl.simulation.history_from_dict` can reconstruct the right
    class when the run store loads a result or checkpoint.
    """

    record_type = CommitRecord
    kind = "federated_async"

    @property
    def commits(self) -> List[CommitRecord]:
        return self.rounds


@dataclass
class _PendingJob:
    """One dispatched-but-unconsumed client update."""

    job_id: int
    client_id: int
    batch_id: int
    dispatch_version: int
    dispatch_time: float
    lost: bool = False


def _client_result(data: Mapping[str, object], metadata: Dict[str, object],
                   vector: Optional[np.ndarray] = None) -> ClientResult:
    """A :class:`ClientResult` from a commit entry (no weights) or a
    checkpointed update.  ``init_loss`` stays ``None`` where unmeasured."""
    init_loss = data.get("init_loss")
    return ClientResult(vector=vector, num_samples=int(data["num_samples"]),
                        train_loss=float(data["train_loss"]),
                        init_loss=None if init_loss is None else float(init_loss),
                        client_id=int(data["client_id"]), metadata=metadata)


class AsyncTelemetry(Callback):
    """Collects staleness / idle-time / participation telemetry for async runs.

    Consumes the :meth:`~repro.fl.callbacks.Callback.on_event` hook the async
    loop fires on every dispatch, completion, loss, dropout, rejoin and
    commit, and writes a ``telemetry`` block into the history metadata at run
    end: per-client participation (committed updates), executor-slot
    utilisation (busy time / virtual time × concurrency), and churn counts.

    Counters are per run-segment: a run resumed from a checkpoint reports
    telemetry for the resumed segment only (commit/staleness statistics, which
    must match the uninterrupted run, are derived from the history records by
    the simulation itself and are unaffected).

    All counting lives in a :class:`repro.obs.MetricsRegistry`: labeled
    ``dispatches``/``completions``/``busy_seconds`` series per client and a
    ``churn`` series per event kind, read back into the ``telemetry`` block
    at run end.
    """

    name = "async_telemetry"

    def __init__(self) -> None:
        self._reset()

    def _reset(self) -> None:
        self.metrics = MetricsRegistry()
        self._started: Dict[int, float] = {}

    def on_run_start(self, sim, history) -> None:
        self._reset()

    def on_event(self, sim, info: Dict[str, object]) -> None:
        kind = info["kind"]
        cid = int(info.get("client_id", -1))
        if kind == "dispatch":
            self.metrics.counter("dispatches", client=cid).inc()
            self._started[cid] = float(info["time"])
        elif kind == "completion":
            self.metrics.counter("completions", client=cid).inc()
            start = self._started.pop(cid, None)
            if start is not None:
                self.metrics.counter("busy_seconds", client=cid).add(
                    float(info["time"]) - start)
        elif kind in ("lost", "dropout", "rejoin"):
            self.metrics.counter("churn", kind=str(kind)).inc()

    def on_run_end(self, sim, history) -> None:
        virtual = max((r.time for r in history.rounds), default=0.0)
        capacity = virtual * getattr(sim, "concurrency", 1)
        busy = sum(c.value for c in self.metrics.series("busy_seconds"))
        completions = {int(c.labels["client"]): int(c.value)
                       for c in self.metrics.series("completions")}
        dispatches = {int(c.labels["client"]): int(c.value)
                      for c in self.metrics.series("dispatches")}
        churn = {c.labels["kind"]: int(c.value)
                 for c in self.metrics.series("churn")}
        history.metadata["telemetry"] = {
            "participation": {c: n for c, n in sorted(completions.items())},
            "dispatches": {c: n for c, n in sorted(dispatches.items())},
            "utilisation": float(busy / capacity) if capacity > 0 else 0.0,
            "dropouts": churn.get("dropout", 0),
            "rejoins": churn.get("rejoin", 0),
            "updates_lost": churn.get("lost", 0),
        }


class AsyncFederatedSimulation(BaseSimulation):
    """Asynchronous FL run on a deterministic simulated clock.

    Parameters are :class:`~repro.fl.simulation.BaseSimulation`'s, except
    that ``strategy`` must be an :class:`~repro.fl.async_sim.strategies.
    AsyncStrategy` (``fedasync``/``fedbuff``), ``config.num_rounds`` counts
    *server commits* rather than synchronous rounds, and the loop also fires
    :meth:`~repro.fl.callbacks.Callback.on_event` for every virtual-clock
    occurrence.  It adds:

    latency:
        A regime preset name (``"uniform"``/``"mild"``/``"extreme"``), a
        :class:`~repro.devices.latency.LatencyRegime`, or a ready mapping of
        device name → :class:`~repro.devices.latency.DeviceLatencyModel`
        covering every client device.
    concurrency:
        Maximum clients training at once; defaults to
        ``config.clients_per_round`` (the synchronous cohort size).
    max_events:
        Safety cap on processed events; ``None`` derives a generous bound
        from the commit target.  Exceeding it raises instead of spinning the
        virtual clock forever (e.g. availability so low no update completes).
    """

    _history_cls = AsyncFLHistory
    _unit = "commit"

    def __init__(
        self,
        model_fn: ModelFactory,
        clients: Sequence[ClientSpec],
        test_sets: Mapping[str, ArrayDataset],
        strategy: AsyncStrategy,
        config: FLConfig,
        latency: Union[str, LatencyRegime, Mapping[str, DeviceLatencyModel]] = "mild",
        concurrency: Optional[int] = None,
        callbacks: Sequence[Callback] = (),
        executor: Optional[Union[str, ClientExecutor]] = None,
        max_events: Optional[int] = None,
    ) -> None:
        if not getattr(strategy, "requires_async", False) or not hasattr(strategy, "server_update"):
            raise ValueError(
                f"strategy '{strategy.name}' has no asynchronous server path; "
                f"the async simulation needs an AsyncStrategy "
                f"('fedasync' or 'fedbuff')"
            )
        faulty = [name for name in ("faults", "fault_policy")
                  if getattr(config, name) is not None]
        if faulty:
            raise ValueError(
                f"the async simulation does not support config {faulty}: its "
                f"dispatch has no retry or quorum path, so injected faults "
                f"would go unhandled and a fault policy would be ignored"
            )
        super().__init__(model_fn, clients, test_sets, strategy, config,
                         callbacks=callbacks, executor=executor)
        if isinstance(latency, Mapping):
            self.latency_models = dict(latency)
        else:
            self.latency_models = build_latency_models(
                [spec.device for spec in self.clients], latency
            )
        missing = sorted({spec.device for spec in self.clients} - set(self.latency_models))
        if missing:
            raise ValueError(f"no latency model for device(s) {missing}")
        if concurrency is None:
            concurrency = min(config.clients_per_round, len(self.clients))
        if isinstance(concurrency, bool) or not isinstance(concurrency, int) or concurrency < 1:
            raise ValueError(f"concurrency must be a positive integer, got {concurrency!r}")
        self.concurrency = min(concurrency, len(self.clients))
        self.max_events = max_events
        self._client_by_id = {spec.client_id: spec for spec in self.clients}
        if len(self._client_by_id) != len(self.clients):
            raise ValueError("client ids must be unique")
        # Virtual-clock bookkeeping for a fresh (round-zero) run.
        self._clock = 0.0
        self._version = 0
        self._queue = EventQueue(self.config.seed)
        self._jobs: Dict[int, _PendingJob] = {}
        self._results: Dict[int, AsyncUpdate] = {}
        # A batch groups dispatches that share a broadcast version; entries
        # are {"vec", "jobs", "flushed"} and flush incrementally (see module
        # docstring).  self._open_batch is the one accepting new dispatches.
        self._batches: Dict[int, Dict[str, object]] = {}
        self._open_batch: Optional[int] = None
        self._online: Dict[int, bool] = {}
        self._busy: Set[int] = set()
        self._avail_counts: Dict[int, int] = {}
        self._latency_counts: Dict[int, int] = {}
        self._dispatch_count = 0
        self._batch_count = 0
        self._job_count = 0
        self._updates_lost = 0
        self._populated = False

    # ------------------------------------------------------------------ #
    @property
    def clock(self) -> float:
        """Current virtual time in simulated seconds."""
        return self._clock

    @property
    def version(self) -> int:
        """Number of server commits so far."""
        return self._version

    def _virtual_clock(self) -> float:
        # run() registers this on the tracer, so every span and instant also
        # carries simulated time.
        return self._clock

    def _eval_index(self) -> int:
        return self._version

    def model_for(self, client_id: int) -> DeviceLatencyModel:
        """The latency model of one client (by its device type)."""
        return self.latency_models[self._client_by_id[client_id].device]

    # -- event emission -------------------------------------------------- #
    def _emit(self, kind: str, **extra) -> None:
        if self.tracer is not None:
            # Virtual-clock occurrences land in the trace as instants; the
            # registered virtual clock stamps them with simulated time too.
            self.tracer.instant(kind, **{k: v for k, v in extra.items()
                                         if not isinstance(v, (list, dict))})
        if self._active_callbacks is not None:
            self._active_callbacks.on_event(self, {"kind": kind, "time": self._clock, **extra})

    # -- population / availability --------------------------------------- #
    def _initialize_population(self) -> None:
        """Draw initial availability and schedule each client's first toggle."""
        seed = self.config.seed
        for cid in sorted(self._client_by_id):
            model = self.model_for(cid)
            self._online[cid] = model.sample_initially_online(event_rng(seed, "init", cid))
            self._avail_counts[cid] = 0
            self._latency_counts[cid] = 0
            if not model.always_online:
                self._schedule_toggle(cid)
        self._populated = True

    def _schedule_toggle(self, cid: int) -> None:
        model = self.model_for(cid)
        count = self._avail_counts[cid]
        self._avail_counts[cid] = count + 1
        duration = model.sample_session(
            self._online[cid], event_rng(self.config.seed, "availability", cid, count)
        )
        self._queue.push(SimEvent(time=self._clock + duration, kind="toggle", client_id=cid))

    # -- dispatch --------------------------------------------------------- #
    def _fill_dispatch(self) -> None:
        """Dispatch idle online clients until ``concurrency`` are in flight."""
        while len(self._busy) < self.concurrency:
            candidates = sorted(
                cid for cid, online in self._online.items()
                if online and cid not in self._busy
            )
            if not candidates:
                break
            rng = event_rng(self.config.seed, "dispatch", self._dispatch_count)
            self._dispatch(candidates[int(rng.integers(len(candidates)))])

    def _dispatch(self, cid: int) -> None:
        if self._open_batch is None:
            batch_id = self._batch_count
            self._batch_count += 1
            self._batches[batch_id] = {"vec": self._global_vec.copy(),
                                       "jobs": [], "flushed": 0}
            self._open_batch = batch_id
        job_id = self._job_count
        self._job_count += 1
        job = _PendingJob(job_id=job_id, client_id=cid, batch_id=self._open_batch,
                          dispatch_version=self._version, dispatch_time=self._clock)
        self._jobs[job_id] = job
        self._batches[self._open_batch]["jobs"].append(job_id)
        self._busy.add(cid)
        spec = self._client_by_id[cid]
        samples = max(1, len(spec.dataset)) * max(1, self.config.local_epochs)
        count = self._latency_counts[cid]
        self._latency_counts[cid] = count + 1
        duration = self.model_for(cid).sample_round_trip(
            samples, event_rng(self.config.seed, "latency", cid, count)
        )
        self._queue.push(SimEvent(time=self._clock + duration, kind="completion",
                                  client_id=cid, job_id=job_id))
        self._dispatch_count += 1
        self._emit("dispatch", client_id=cid, job_id=job_id, version=self._version)

    # -- batch flushing ---------------------------------------------------- #
    def _flush_batch(self, batch_id: int) -> None:
        """Train the batch's not-yet-flushed jobs through the executor.

        Incremental: an open batch can be flushed repeatedly as jobs are
        appended; each job trains exactly once, from the batch's broadcast
        vector, with a seed derived from ``(run seed, batch id, client id)``
        — so flush timing (completion-triggered, snapshot-triggered) cannot
        change any result.
        """
        batch = self._batches[batch_id]
        pending = batch["jobs"][batch["flushed"]:]
        if pending:
            jobs = [self._jobs[jid] for jid in pending]
            specs = [self._client_by_id[job.client_id] for job in jobs]
            # batch_id plays the round_index role in per-client seed
            # derivation; a client appears at most once per batch, so every
            # (batch, client) training stream is unique.
            self.context.round_index = batch_id
            broadcast = batch["vec"].view()
            broadcast.flags.writeable = False
            with self._obs_span("flush_batch", batch=batch_id,
                                jobs=len(specs)) as flush_span:
                _, stream, _ = run_tolerant_round(
                    self._executor, self.strategy, self.model_fn, specs,
                    broadcast, self.context)
                results = list(stream)
            if self.tracer is not None:
                merge_client_spans(self.tracer, flush_span.start, results,
                                   {spec.client_id: spec.device for spec in specs})
            for job, result in zip(jobs, results):
                self._results[job.job_id] = AsyncUpdate(
                    result=result, delta=result.vector - batch["vec"],
                    dispatch_version=job.dispatch_version,
                )
            batch["flushed"] = len(batch["jobs"])
        self._maybe_discard(batch_id)

    def _maybe_discard(self, batch_id: int) -> None:
        """Drop a batch once it is closed and fully flushed."""
        batch = self._batches.get(batch_id)
        if (batch is not None and batch_id != self._open_batch
                and batch["flushed"] >= len(batch["jobs"])):
            del self._batches[batch_id]

    # -- event handlers ---------------------------------------------------- #
    def _on_completion(self, event: SimEvent) -> None:
        job = self._jobs[event.job_id]
        if job.lost:
            del self._jobs[event.job_id]
            # The client dropped offline mid-training: its update is
            # abandoned and never touches the global model.
            self._updates_lost += 1
            batch = self._batches.get(job.batch_id)
            if batch is not None and job.job_id in batch["jobs"][batch["flushed"]:]:
                # Not trained yet — skip computing it at all.
                batch["jobs"].remove(job.job_id)
                self._maybe_discard(job.batch_id)
            self._results.pop(job.job_id, None)
            self._emit("lost", client_id=job.client_id, job_id=job.job_id)
            return
        if job.job_id not in self._results:
            self._flush_batch(job.batch_id)
        del self._jobs[event.job_id]
        update = self._results.pop(job.job_id)
        self._busy.discard(job.client_id)
        staleness = self._version - job.dispatch_version
        self._emit("completion", client_id=job.client_id, job_id=job.job_id,
                   staleness=staleness)
        commit = self.strategy.server_update(self._global_vec, update, staleness,
                                             self.context)
        if commit is not None:
            self._apply_commit(commit)
        self._fill_dispatch()

    def _on_toggle(self, event: SimEvent) -> None:
        cid = event.client_id
        now_online = not self._online[cid]
        self._online[cid] = now_online
        if not now_online and cid in self._busy:
            # Abandon the in-flight job; the slot frees immediately and the
            # stale completion event is skipped when it pops.
            for job in self._jobs.values():
                if job.client_id == cid and not job.lost:
                    job.lost = True
            self._busy.discard(cid)
        self._schedule_toggle(cid)
        self._emit("rejoin" if now_online else "dropout", client_id=cid)
        # Rejoins add a candidate, dropouts of busy clients free a slot;
        # either way the invariant is restored: between events, capacity is
        # full or no idle online client exists.
        self._fill_dispatch()

    def _apply_commit(self, commit: AsyncCommit) -> None:
        self._global_vec = np.ascontiguousarray(commit.vector,
                                                dtype=self._layout.dtype)
        self._version += 1
        # Later dispatches must broadcast the new version: close the batch.
        closed, self._open_batch = self._open_batch, None
        if closed is not None:
            self._maybe_discard(closed)
        entries = commit.entries
        self.context.ema.update_from_clients(
            [e["train_loss"] for e in entries],
            weights=[e["num_samples"] for e in entries],
        )
        record = CommitRecord(
            round_index=self._version - 1,
            selected_clients=[int(e["client_id"]) for e in entries],
            mean_train_loss=float(np.mean([e["train_loss"] for e in entries])),
            ema_loss=float(self.context.ema.value),
            time=self._clock,
            staleness=[int(e["staleness"]) for e in entries],
        )
        if self._history is not None:
            self._history.rounds.append(record)
        self._emit("commit", version=self._version,
                   clients=[int(e["client_id"]) for e in entries])
        if self._active_callbacks is not None:
            results = [_client_result(e, {"device": e.get("device", "")})
                       for e in entries]
            self._active_callbacks.on_round_end(self, record, results)

    # -- checkpoint / resume ------------------------------------------------ #
    def _loop_state(self) -> Dict[str, object]:
        # Pending batches are flushed first, so every in-flight update is a
        # concrete (packed) array; flushing is observationally transparent
        # (see _flush_batch), so taking a snapshot cannot perturb the run.
        for batch_id in sorted(self._batches):
            self._flush_batch(batch_id)
        return {
            "kind": self._history_cls.kind,
            "clock": float(self._clock),
            "version": int(self._version),
            "queue": self._queue.state_dict(),
            "jobs": [dataclasses.asdict(self._jobs[jid]) for jid in sorted(self._jobs)],
            "results": {
                int(jid): {
                    "vec": update.result.vector,
                    "delta": update.delta,
                    "dispatch_version": int(update.dispatch_version),
                    "client_id": int(update.result.client_id),
                    "num_samples": int(update.result.num_samples),
                    "train_loss": float(update.result.train_loss),
                    "init_loss": update.result.init_loss,
                    "metadata": dict(update.result.metadata),
                }
                for jid, update in sorted(self._results.items())
            },
            "batches": [
                {"batch_id": int(bid), "vec": batch["vec"],
                 "jobs": list(batch["jobs"]), "flushed": int(batch["flushed"])}
                for bid, batch in sorted(self._batches.items())
            ],
            "open_batch": self._open_batch,
            "online": {int(c): bool(v) for c, v in sorted(self._online.items())},
            "busy": sorted(self._busy),
            "avail_counts": {int(c): int(v) for c, v in sorted(self._avail_counts.items())},
            "latency_counts": {int(c): int(v) for c, v in sorted(self._latency_counts.items())},
            "dispatch_count": int(self._dispatch_count),
            "batch_count": int(self._batch_count),
            "job_count": int(self._job_count),
            "updates_lost": int(self._updates_lost),
        }

    def _load_loop_state(self, snapshot: Mapping[str, object]) -> int:
        self._clock = float(snapshot["clock"])
        self._version = int(snapshot["version"])
        self._queue = EventQueue.from_state_dict(snapshot["queue"])
        # The codec's JSON keeps each field's int/float/bool type.
        self._jobs = {job["job_id"]: _PendingJob(**job) for job in snapshot["jobs"]}
        self._results = {}
        for jid, data in snapshot["results"].items():
            self._results[int(jid)] = AsyncUpdate(
                result=_client_result(data, dict(data.get("metadata", {})),
                                      vector=np.asarray(data["vec"])),
                delta=np.asarray(data["delta"]),
                dispatch_version=int(data["dispatch_version"]),
            )
        self._batches = {
            int(batch["batch_id"]): {"vec": np.asarray(batch["vec"]),
                                     "jobs": [int(j) for j in batch["jobs"]],
                                     "flushed": int(batch["flushed"])}
            for batch in snapshot["batches"]
        }
        open_batch = snapshot.get("open_batch")
        self._open_batch = None if open_batch is None else int(open_batch)
        self._online = {int(c): bool(v) for c, v in snapshot["online"].items()}
        self._busy = {int(c) for c in snapshot["busy"]}
        self._avail_counts = {int(c): int(v) for c, v in snapshot["avail_counts"].items()}
        self._latency_counts = {int(c): int(v) for c, v in snapshot["latency_counts"].items()}
        self._dispatch_count = int(snapshot["dispatch_count"])
        self._batch_count = int(snapshot["batch_count"])
        self._job_count = int(snapshot["job_count"])
        self._updates_lost = int(snapshot["updates_lost"])
        self._populated = True
        return self._version

    # -- the virtual-clock loop --------------------------------------------- #
    def _event_budget(self, target: int) -> int:
        if self.max_events is not None:
            return self.max_events
        # Generous: every commit needs at most buffer-size completions, plus
        # churn toggles and abandoned updates in between.
        return max(10_000, 500 * target + 100 * len(self.clients))

    def run(self, num_commits: Optional[int] = None) -> AsyncFLHistory:
        """Run until ``num_commits`` server commits (``config.num_rounds``).

        After :meth:`restore`, the run continues from the checkpoint's clock
        and event queue instead of starting at virtual time zero.  Without
        one, a second call raises ``ValueError``.
        """
        return self._run(num_commits)

    def _loop(self, start: int, target: int, callbacks: CallbackList) -> None:
        budget = self._event_budget(target)
        processed = 0
        if not self._populated:
            self._initialize_population()
            self._fill_dispatch()
        elif self._version < target:
            # Checkpoints are written from commit callbacks, which fire
            # *before* the post-commit dispatch refill; perform that
            # pending refill now so the resumed run re-issues exactly the
            # dispatches the uninterrupted run issued right after the
            # checkpointed commit (all RNG stream counters were restored,
            # so the draws are identical).
            self._fill_dispatch()
        while self._version < target and not self._stop_requested:
            if not self._queue:
                raise RuntimeError(
                    f"event queue ran dry at commit {self._version}/{target} "
                    f"(virtual time {self._clock:.1f}s): no client can "
                    f"produce further updates under this latency/"
                    f"availability configuration"
                )
            if processed >= budget:
                raise RuntimeError(
                    f"processed {processed} events without reaching "
                    f"{target} commits (at {self._version}); availability "
                    f"may be too low or the buffer too large — raise "
                    f"max_events to override"
                )
            event = self._queue.pop()
            self._clock = event.time
            processed += 1
            if event.kind == "completion":
                self._on_completion(event)
            else:
                self._on_toggle(event)
        self._finalize_metadata(self._history)

    def _finalize_metadata(self, history: AsyncFLHistory) -> None:
        """Simulated-clock summary, derived from the commit records.

        Everything here is a pure function of ``history.rounds`` plus the
        snapshotted loss counter, so a resumed run reports identical values
        to an uninterrupted one.
        """
        staleness = [s for record in history.rounds for s in record.staleness]
        virtual = max((record.time for record in history.rounds), default=self._clock)
        history.metadata.update({
            "virtual_seconds": float(virtual),
            "virtual_hours": float(virtual / 3600.0),
            "num_commits": len(history.rounds),
            "num_updates": len(staleness),
            "mean_staleness": float(np.mean(staleness)) if staleness else 0.0,
            "max_staleness": int(max(staleness)) if staleness else 0,
            "updates_lost": int(self._updates_lost),
            "concurrency": int(self.concurrency),
        })
