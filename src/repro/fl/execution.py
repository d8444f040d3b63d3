"""Pluggable client-execution backends for the FL simulation loop.

Every round fans the per-client local-training step out through a
:class:`ClientExecutor`, whose whole protocol is one generator,
:meth:`ClientExecutor.iter_round`: it takes a wave of ``(spec, attempt)``
jobs and yields one outcome per job, in job order — the job's
:class:`~repro.fl.training.ClientResult`, or the
:class:`~repro.fl.errors.ExecutorError` it failed with.  The fault layer
(:func:`repro.fl.faults.run_tolerant_round`) decides what a failure means
(fatal without a policy; retried or dropped under one), and the simulation
folds the surviving results into the aggregate one at a time.  Three
backends are registered in :data:`EXECUTOR_REGISTRY`:

* ``serial`` — the reference path: one scratch model, jobs trained in order
  on the calling thread, each when the consumer asks for its outcome.
* ``thread`` — a ``concurrent.futures.ThreadPoolExecutor`` with one scratch
  model per worker thread.  Useful when the training step releases the GIL
  (large BLAS calls) and for exercising the parallel protocol cheaply.
* ``shm``    — the multi-core backend: a *persistent* fork-based worker pool
  plus a ``multiprocessing.shared_memory`` broadcast segment.  The server
  copies the packed global vector into the segment once per round; workers
  map it read-only, train, and ship back the packed vector their client
  returned.
  Outcomes stream back as they complete, so together with the strategies'
  streaming reductions one round is O(1) in clients/round on the server
  side.  Dead workers are respawned in place mid-round.

Weights cross the protocol in one format both ways: the global vector
packed in the run's :class:`~repro.nn.serialization.StateLayout` order goes
down (read-only, never copied per client), and each
:class:`~repro.fl.training.ClientResult` carries its trained weights back as
``vector`` in the same order.

Determinism contract (why every backend produces bit-identical runs):

1. Each client job derives its own RNG stream from ``(config.seed,
   round_index, client_id)`` via :func:`derive_client_seed` — never from a
   shared generator — so a client's update is a pure function of the broadcast
   weights and its identity, independent of scheduling.
2. ``client_update`` must treat the shared :class:`~repro.fl.strategies.base.
   FLContext` as read-only; per-client state updates travel in
   ``ClientResult.metadata`` and are applied server-side after the round.
3. Executors yield outcomes in *job order* regardless of completion order,
   and every strategy's ``aggregate_stream`` refuses any other order (see
   :func:`repro.fl.strategies.base.consume_stream`), so aggregation is
   independent of both submission interleaving and worker count.
"""

from __future__ import annotations

import multiprocessing
import os
import queue as queue_module
import sys
import threading
import time
import traceback
import types
from collections import deque
from concurrent.futures import ThreadPoolExecutor as _FuturesThreadPool
from concurrent.futures import wait as _futures_wait
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from ..data.partition import ClientSpec
from ..nn.engine import dtype_mode
from ..obs.profiling import PROFILER
from ..registry import Registry
from .errors import ClientFailure, ExecutorError, RoundTimeout, WorkerDied
from .training import ClientResult

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (strategies import us)
    from ..nn.layers import Module
    from .strategies.base import FLContext, Strategy

__all__ = [
    "derive_client_seed",
    "client_rng",
    "run_client",
    "validate_max_workers",
    "ClientExecutor",
    "SerialExecutor",
    "ThreadExecutor",
    "SharedMemoryExecutor",
    "EXECUTOR_REGISTRY",
    "create_executor",
]

#: A (spec, attempt) pair: one client job of a wave.
AttemptJob = Tuple[ClientSpec, int]
#: What :meth:`ClientExecutor.iter_round` yields for one job.
Outcome = Union[ClientResult, ExecutorError]

# Exit code of a worker killed by an injected "kill" fault: distinctive in
# logs and never produced by CPython itself.
_KILL_EXIT_CODE = 173

ModelFactory = Callable[[], "Module"]

# The historical per-client seed derivation (formerly duplicated inline in
# every strategy).  The constants are frozen: changing them would change every
# benchmark number the repo has ever produced.
_SEED_ROUND_STRIDE = 1_009
_SEED_RUN_STRIDE = 100_003


def derive_client_seed(seed: int, round_index: int, client_id: int) -> int:
    """The seed of one client's private RNG stream for one round.

    A pure function of ``(run seed, round, client)``: the stream is identical
    whether the client trains serially, on a thread, or in a worker process,
    and regardless of how many other clients train concurrently.
    """
    return seed * _SEED_RUN_STRIDE + round_index * _SEED_ROUND_STRIDE + client_id


def client_rng(seed: int, round_index: int, client_id: int) -> np.random.Generator:
    """A fresh generator positioned at the start of the client's stream."""
    return np.random.default_rng(derive_client_seed(seed, round_index, client_id))


def validate_max_workers(max_workers: Optional[int]) -> None:
    """Reject anything but ``None`` or a positive (non-bool) integer.

    The single validator shared by executor construction and
    :meth:`repro.runtime.RunSpec.validate`, so the two paths cannot drift.
    """
    if max_workers is not None and (
        not isinstance(max_workers, int)
        or isinstance(max_workers, bool)
        or max_workers < 1
    ):
        raise ValueError(
            f"max_workers must be a positive integer or None, got {max_workers!r}"
        )


class _InjectedKill(BaseException):
    """An injected ``kill`` fault inside an shm worker.

    A ``BaseException`` so no handler on the way up mistakes it for a client
    failure; :func:`_shm_worker_main` catches it and exits the process with
    ``os._exit`` — no reply, no cleanup handlers, the realistic OOM-kill
    shape — once the worker's earlier replies are fully written.
    """


def _inject_pre_compute_fault(fault: str, spec: ClientSpec,
                              context: "FLContext", attempt: int,
                              client_timeout: Optional[float]) -> None:
    """Apply an injected fault that fires *before* the local update runs.

    ``crash`` raises a :class:`ClientFailure`; ``kill`` terminates an shm
    worker mid-task (see :class:`_InjectedKill`) or, in the main process
    where dying would take the server down, degrades to a raised
    :class:`WorkerDied` so the failure schedule and retry behaviour stay
    identical across backends; ``hang`` sleeps for the plan's
    ``hang_seconds``.  A hang is judged against the policy's per-client
    deadline *deterministically* — configured value against configured
    value, with the sleep capped at the deadline — so a chaos run's timeouts
    replay bit-for-bit regardless of host speed.
    """
    client_id, round_index = spec.client_id, context.round_index
    if fault == "crash":
        raise ClientFailure(
            f"injected crash: client {client_id} raised on attempt {attempt} "
            f"of round {round_index}", client_id=client_id,
            round_index=round_index, attempt=attempt, kind="crash")
    if fault == "kill":
        if multiprocessing.current_process().name != "MainProcess":
            raise _InjectedKill
        raise WorkerDied(
            f"injected kill: the worker training client {client_id} died on "
            f"attempt {attempt} of round {round_index} (simulated in-process)",
            client_id=client_id, round_index=round_index, attempt=attempt)
    if fault == "hang":
        hang_seconds = context.config.faults.hang_seconds
        if client_timeout is not None and hang_seconds >= client_timeout:
            time.sleep(min(hang_seconds, client_timeout))
            raise RoundTimeout(
                f"injected hang: client {client_id} exceeded the "
                f"{client_timeout:g}s per-client deadline on attempt "
                f"{attempt} of round {round_index}", client_id=client_id,
                round_index=round_index, attempt=attempt)
        time.sleep(hang_seconds)


def _poison_result(fault: str, result: ClientResult) -> None:
    """Corrupt a computed update the way a buggy/hostile client would.

    ``nan`` sets the first element to NaN (enough to poison every weighted
    average it touches); ``shape`` drops the last element, taking the update
    out of the global layout.  Neither writes into the returned vector, so a
    vector shared with a parameter arena is never corrupted in place.
    """
    if fault == "nan":
        result.vector = result.vector.copy()
        result.vector[0] = np.nan
    else:  # "shape"
        result.vector = result.vector[:-1]


def run_client(
    strategy: "Strategy",
    model: "Module",
    spec: ClientSpec,
    global_vec: np.ndarray,
    context: "FLContext",
    attempt: int = 0,
) -> ClientResult:
    """Run one client's local update and stamp the provenance aggregation needs.

    The whole update — including strategy-side evaluation such as
    HeteroSwitch's bias measurement — runs under the config's compute dtype
    (``float64`` or ``float32``); the dtype is thread-local, so concurrent
    clients at different precisions cannot interfere.

    When the config asks for observability (``trace``/``profile``), the
    update is wall-clock timed — and, under ``profile``, run with the kernel
    timers active — and a compact scalar payload is packed into
    ``result.metadata["obs"]``.  Metadata already rides the result path of
    every backend (including the shm result queue), so this is the single
    cross-process collection point; the server merges the payloads into the
    run-level trace.  Purely observational: the training computation is
    identical with and without it.

    This is also the single chokepoint of the fault layer, shared by every
    backend:

    * When ``config.faults`` is set, the seeded :class:`~repro.fl.faults.
      FaultPlan` decides — as a pure function of ``(plan seed, round,
      client, attempt)`` — whether this job crashes, hangs, returns a
      poisoned/misshapen update, or kills its worker.  ``attempt`` feeds
      only the fault draw, never the client's RNG stream, so a retried
      client is bit-identical to a first-try client.
    * Exceptions escaping ``client_update`` are wrapped into
      :class:`~repro.fl.errors.ClientFailure` (original chained as
      ``__cause__``) with the client/round/attempt context attached.
    * Under a policy with ``client_timeout``, the measured wall time of a
      genuine straggler raises :class:`~repro.fl.errors.RoundTimeout`
      post-hoc (injected hangs are judged deterministically upstream).
    """
    config = context.config
    plan = config.faults
    policy = config.fault_policy
    client_timeout = policy.client_timeout if policy is not None else None
    fault = None
    if plan is not None and plan.active:
        fault = plan.decide(context.round_index, spec.client_id, attempt)
    if fault is not None:
        _inject_pre_compute_fault(fault, spec, context, attempt, client_timeout)
    profile = config.profile
    observed = profile or config.trace
    timed = observed or client_timeout is not None
    start = time.perf_counter() if timed else 0.0
    try:
        with dtype_mode(config.dtype):
            if profile:
                PROFILER.drain()  # drop residue from a previously aborted client
                PROFILER.activate()
                try:
                    result = strategy.client_update(model, spec, global_vec,
                                                    context)
                finally:
                    PROFILER.deactivate()
                kernels = PROFILER.drain()
            else:
                result = strategy.client_update(model, spec, global_vec,
                                                context)
                kernels = {}
    except ExecutorError:
        raise
    except Exception as exc:
        raise ClientFailure(
            f"client {spec.client_id} failed on attempt {attempt} of round "
            f"{context.round_index}: {type(exc).__name__}: {exc}",
            client_id=spec.client_id, round_index=context.round_index,
            attempt=attempt) from exc
    duration = (time.perf_counter() - start) if timed else 0.0
    result.client_id = spec.client_id
    if observed:
        result.metadata["obs"] = {
            "duration": float(duration),
            "kernels": {name: [int(calls), float(seconds)]
                        for name, (calls, seconds) in sorted(kernels.items())},
        }
    if fault in ("nan", "shape"):
        _poison_result(fault, result)
    if client_timeout is not None and duration > client_timeout:
        raise RoundTimeout(
            f"client {spec.client_id} exceeded the {client_timeout:g}s "
            f"per-client deadline ({duration:.3f}s) on attempt {attempt} of "
            f"round {context.round_index}", client_id=spec.client_id,
            round_index=context.round_index, attempt=attempt)
    return result


def _capture_attempt(strategy: "Strategy", model: "Module", spec: ClientSpec,
                     global_vec: np.ndarray,
                     context: "FLContext", attempt: int) -> Outcome:
    """Run one attempt, returning failures as values instead of raising.

    The building block of every backend's ``iter_round``: client-level
    failures become :class:`~repro.fl.errors.ExecutorError` outcomes (with
    the formatted traceback attached for cross-process diagnosis), while
    non-``Exception`` escapes like ``KeyboardInterrupt`` still propagate.
    """
    try:
        return run_client(strategy, model, spec, global_vec, context,
                          attempt=attempt)
    except ExecutorError as exc:
        if exc.remote_traceback is None:
            exc.remote_traceback = traceback.format_exc()
        return exc


def _scratch_model(holder, model_fn: ModelFactory, dtype: str) -> "Module":
    """The scratch model cached on ``holder``, rebuilt when ``(model_fn, dtype)`` changes.

    Each backend keeps its own holder — the executor, a thread-local or a
    worker-local object.  The cache is keyed on the compute dtype too: the
    same factory at a different precision must rebuild, or a float64 model
    would silently serve a float32 round (and vice versa).
    """
    key = getattr(holder, "scratch_key", None)
    if key is None or key[0] is not model_fn or key[1] != dtype:
        with dtype_mode(dtype):
            holder.scratch_model = model_fn()
        holder.scratch_key = (model_fn, dtype)
    return holder.scratch_model


class ClientExecutor:
    """Interface: train one wave of client jobs, yield outcomes in job order.

    Parameters
    ----------
    max_workers:
        Upper bound on concurrent client jobs; ``None`` means one worker per
        CPU core.  The serial backend accepts (and ignores) it so every
        backend is constructed uniformly from :class:`~repro.runtime.RunSpec`
        fields.
    """

    name = "executor"

    def __init__(self, max_workers: Optional[int] = None) -> None:
        validate_max_workers(max_workers)
        self.max_workers = max_workers

    def iter_round(
        self,
        strategy: "Strategy",
        model_fn: ModelFactory,
        jobs: Sequence[AttemptJob],
        global_vec: np.ndarray,
        context: "FLContext",
    ) -> Iterator[Outcome]:
        """Train ``(spec, attempt)`` jobs; yield one outcome per job, in job order.

        Every job trains from ``global_vec``, the packed global weights,
        which no job may write to.

        An outcome is the job's :class:`ClientResult`, or the
        :class:`~repro.fl.errors.ExecutorError` it failed with.  Client
        exceptions, timeouts, rejected updates and worker deaths are all
        yielded, never raised, so one bad client cannot abort its round-mates;
        :func:`repro.fl.faults.run_tolerant_round` decides what a failure
        means.  Consumers may fold each result into an accumulator and release
        it before the next one arrives, and may close the generator early (a
        fail-fast round does, on its first failure): the backend then cancels
        or tears down whatever is still running.
        """
        raise NotImplementedError

    def close(self) -> None:
        """Release worker resources (idempotent; the executor stays usable)."""

    def _effective_workers(self, num_jobs: int) -> int:
        limit = self.max_workers if self.max_workers is not None else (os.cpu_count() or 1)
        return max(1, min(limit, num_jobs))

    def __enter__(self) -> "ClientExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(max_workers={self.max_workers})"


class SerialExecutor(ClientExecutor):
    """The reference backend: jobs train in order on one scratch model.

    Each job runs only when the consumer asks for its outcome, so a
    fail-fast round that stops at the first failure trains no later client.
    """

    name = "serial"

    def iter_round(self, strategy, model_fn, jobs, global_vec, context):
        model = _scratch_model(self, model_fn, context.config.dtype)
        for spec, attempt in jobs:
            yield _capture_attempt(strategy, model, spec, global_vec, context,
                                   attempt)


class ThreadExecutor(ClientExecutor):
    """Thread-pool backend with one scratch model per worker thread.

    The pool is created lazily and survives across rounds (and runs), so
    models are built once per thread rather than once per client.
    """

    name = "thread"

    def __init__(self, max_workers: Optional[int] = None) -> None:
        super().__init__(max_workers)
        self._pool: Optional[_FuturesThreadPool] = None
        self._pool_workers = 0
        self._local = threading.local()

    def _ensure_pool(self, workers: int) -> _FuturesThreadPool:
        if self._pool is None or self._pool_workers < workers:
            self.close()
            self._pool = _FuturesThreadPool(max_workers=workers,
                                            thread_name_prefix="fl-client")
            self._pool_workers = workers
        return self._pool

    def _attempt_one(self, strategy, model_fn, spec, global_vec, context,
                     attempt):
        model = _scratch_model(self._local, model_fn, context.config.dtype)
        return _capture_attempt(strategy, model, spec, global_vec, context,
                                attempt)

    def iter_round(self, strategy, model_fn, jobs, global_vec, context):
        jobs = list(jobs)
        if not jobs:
            return
        pool = self._ensure_pool(self._effective_workers(len(jobs)))
        futures = [pool.submit(self._attempt_one, strategy, model_fn, spec,
                               global_vec, context, attempt)
                   for spec, attempt in jobs]
        try:
            for future in futures:
                yield future.result()
        finally:
            # A consumer that stops early (a fail-fast round closes the
            # generator on its first failure) must not wait for the later
            # jobs one at a time, nor leave them running: cancel whatever has
            # not started, then drain the running jobs so the pool is
            # quiescent — and safely reusable — when control returns.
            for future in futures:
                future.cancel()
            _futures_wait(futures)

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
            self._pool_workers = 0


def _require_fork_platform(executor_name: str) -> None:
    """Gate fork-based backends to platforms where forking is actually safe.

    macOS lists 'fork' as available but forking a threaded/Accelerate process
    is unsafe there (objc fork-safety aborts), so require Linux rather than
    merely fork availability.
    """
    if sys.platform == "darwin" or "fork" not in multiprocessing.get_all_start_methods():
        raise RuntimeError(
            f"the '{executor_name}' executor requires a fork-safe platform "
            f"(Linux); use executor='thread' or 'serial' on this platform"
        )


# Fork handoff for the persistent shared-memory pool: the (strategy, model
# factory) pair is staged here immediately before the workers fork and cleared
# right after, so neither object (the factory is usually a closure) is ever
# pickled — children inherit it by copy-on-write for the pool's lifetime.
_SHM_STATIC: Optional[Tuple["Strategy", ModelFactory]] = None


def _shm_worker_main(worker_index: int, task_queue, result_queue) -> None:
    """Long-lived shm worker loop: attach → train clients → ship packed vectors.

    Protocol (all messages are tuples tagged by their first element):

    * ``("round", header)`` — start-of-round broadcast.  The header names the
      shared-memory segment holding the packed global vector plus its
      element count and dtype, and carries the round's context snapshot
      (config, EMA state, selection, server storage).
    * ``("client", position, spec, storage, attempt)`` — train one client;
      reply on the shared result queue with ``("ok", worker_index, position,
      vector, num_samples, train_loss, init_loss, client_id, metadata)``
      where ``vector`` is the client's ``ClientResult.vector``, shipped as
      returned.  ``attempt`` feeds the fault layer only (see
      :func:`run_client`).
    * ``("stop",)`` — exit the loop.

    Failures reply ``("err", worker_index, position, failure)`` — a pickled
    :class:`~repro.fl.errors.ExecutorError` carrying the client/round/attempt
    context and the worker-side traceback text — and keep the worker alive.
    A failure on a ``"round"`` message replies with position ``-1``; the
    server fails the whole round with it.  Updates are validated by the
    server, as on every backend.  The segment is mapped read-only via
    ``np.memmap`` on its ``/dev/shm`` backing file rather than
    ``SharedMemory(name=...)``: attaching through the class would enroll the
    segment with this process's ``resource_tracker``, whose cleanup would
    fight the parent's over who unlinks it.
    """
    static = _SHM_STATIC
    assert static is not None, "worker forked without a staged (strategy, model_fn)"
    strategy, model_fn = static
    scratch = types.SimpleNamespace()
    shm_name: Optional[str] = None
    global_vec: Optional[np.ndarray] = None
    round_context: Optional["FLContext"] = None
    while True:
        message = task_queue.get()
        kind = message[0]
        if kind == "stop":
            return
        try:
            if kind == "round":
                # Late imports: strategies.base imports this module, and the
                # core package's __init__ pulls the strategies in too.
                from ..core.ema import EMALossTracker
                from .strategies.base import FLContext

                header = message[1]
                if shm_name != header["shm_name"]:
                    # The segment name changes whenever the server re-creates
                    # the segment — including on a dtype change — so keying
                    # the mapping on the name alone stays sufficient.
                    # Read-only, and a plain ndarray view of the mapping.
                    shm_name = header["shm_name"]
                    global_vec = np.asarray(np.memmap(
                        "/dev/shm/" + shm_name, dtype=np.dtype(header["dtype"]),
                        mode="r", shape=(header["size"],)))
                ema = EMALossTracker(alpha=header["config"].ema_alpha)
                ema.load_state_dict(header["ema"])
                round_context = FLContext(
                    config=header["config"],
                    ema=ema,
                    round_index=header["round_index"],
                    server_storage=header["server_storage"],
                )
            elif kind == "client":
                position, spec, storage = message[1], message[2], message[3]
                attempt = message[4]
                round_context.client_storage[spec.client_id] = storage
                model = _scratch_model(scratch, model_fn, round_context.config.dtype)
                result = run_client(strategy, model, spec, global_vec,
                                    round_context, attempt=attempt)
                result_queue.put(("ok", worker_index, position, result.vector,
                                  result.num_samples, result.train_loss,
                                  result.init_loss, result.client_id,
                                  result.metadata))
        except _InjectedKill:
            # Flush before dying: a kill landing while this worker's queue
            # feeder thread holds the shared result queue's write lock would
            # strand the lock and block every other worker's replies.
            result_queue.close()
            result_queue.join_thread()
            os._exit(_KILL_EXIT_CODE)
        except BaseException as exc:
            position = message[1] if kind == "client" else -1
            if isinstance(exc, ExecutorError):
                failure = exc
            else:
                failure = ClientFailure(
                    f"shm worker failed processing a '{kind}' message:\n"
                    + traceback.format_exc())
            if failure.remote_traceback is None:
                failure.remote_traceback = traceback.format_exc()
            result_queue.put(("err", worker_index, position, failure))


class SharedMemoryExecutor(ClientExecutor):
    """Fleet-scale backend: persistent fork pool + shared-memory broadcast.

    What makes hundreds of clients per round tractable:

    * **Persistent workers** — the pool forks once (per ``(strategy,
      model_fn)`` pair) and survives across rounds and runs, so scratch
      models are built once per worker, not once per round.
    * **Shared-memory broadcast** — the global weights are packed once into a
      named ``multiprocessing.shared_memory`` segment; workers map it
      read-only.  Per-round communication to each worker is a small header
      (segment name, element count and dtype, context snapshot), not a copy
      of the model.
    * **Compact returns** — workers reply with the client's packed weight
      vector, which the server folds straight into the streaming
      aggregation.
    * **Streaming rounds** — :meth:`iter_round` yields each outcome as soon
      as every earlier position is in (a reorder buffer bridges completion
      order to job order), so the simulation folds each update into the
      aggregate and frees it immediately: server memory per round is
      O(model), not O(clients x model).

    Task dispatch is dynamically load-balanced: each worker gets one client
    up front and receives the next one when its result arrives.  Determinism
    is unaffected — every client's RNG stream is a pure function of
    ``(seed, round, client_id)`` and reduction follows selection order — so
    runs are bit-identical to the serial reference.
    """

    name = "shm"

    def __init__(self, max_workers: Optional[int] = None) -> None:
        super().__init__(max_workers)
        self._workers: List[Tuple[Any, Any]] = []  # (Process, SimpleQueue)
        self._result_queue = None
        self._static: Optional[Tuple["Strategy", ModelFactory]] = None
        self._segment = None
        self._segment_vector: Optional[np.ndarray] = None

    # -- pool lifecycle --------------------------------------------------- #
    def _ensure_pool(self, strategy: "Strategy", model_fn: ModelFactory,
                     workers: int) -> None:
        global _SHM_STATIC
        if self._workers:
            reusable = (
                self._static is not None
                and self._static[0] is strategy
                and self._static[1] is model_fn
                and len(self._workers) >= workers
                and all(proc.is_alive() for proc, _ in self._workers)
            )
            if reusable:
                return
            self._shutdown_pool(graceful=True)
        mp_context = multiprocessing.get_context("fork")
        self._result_queue = mp_context.Queue()
        # Task queues are SimpleQueues on purpose: their put() writes the pipe
        # synchronously under a lock, so the parent never owns Queue feeder
        # threads whose locks a later fork could copy in a held state.
        _SHM_STATIC = (strategy, model_fn)
        try:
            for index in range(workers):
                task_queue = mp_context.SimpleQueue()
                process = mp_context.Process(
                    target=_shm_worker_main,
                    args=(index, task_queue, self._result_queue),
                    daemon=True,
                )
                process.start()
                self._workers.append((process, task_queue))
        finally:
            _SHM_STATIC = None
        self._static = (strategy, model_fn)

    def _shutdown_pool(self, graceful: bool) -> None:
        workers, self._workers = self._workers, []
        self._static = None
        # One shared wall-clock budget for the whole pool: the joins below
        # used to allow up to 5s *per worker* (10s with the terminate
        # fallback), so one wedged 8-worker pool could stall teardown for
        # over a minute.  Now the budget is pool-wide; workers that ignore
        # it are terminated, then SIGKILLed.
        deadline = time.monotonic() + (5.0 if graceful else 1.0)
        for process, task_queue in workers:
            if graceful and process.is_alive():
                try:
                    task_queue.put(("stop",))
                except (OSError, ValueError):  # pragma: no cover - dying pipe
                    pass
        for process, task_queue in workers:
            process.join(timeout=max(0.0, deadline - time.monotonic()))
            if process.is_alive():
                process.terminate()
                process.join(timeout=max(0.5, deadline - time.monotonic()))
            if process.is_alive():  # pragma: no cover - wedged in a syscall
                process.kill()
                process.join(timeout=1.0)
            try:
                task_queue.close()
            except (OSError, ValueError):  # pragma: no cover - dying pipe
                pass
        if self._result_queue is not None:
            self._result_queue.close()
            self._result_queue = None

    def _respawn_worker(self, index: int) -> None:
        """Replace one dead worker in place; the pool and segment survive.

        The replacement forks with the same ``(strategy, model_fn)`` handoff
        as the original pool and takes over the dead worker's slot (same
        worker index, fresh task queue, the shared result queue), so the
        round keeps streaming without re-broadcasting the global weights —
        the /dev/shm segment is untouched.
        """
        global _SHM_STATIC
        process, task_queue = self._workers[index]
        process.join(timeout=1.0)  # reap: it is already dead
        try:
            task_queue.close()
        except (OSError, ValueError):  # pragma: no cover - dying pipe
            pass
        mp_context = multiprocessing.get_context("fork")
        _SHM_STATIC = self._static
        try:
            fresh_queue = mp_context.SimpleQueue()
            replacement = mp_context.Process(
                target=_shm_worker_main,
                args=(index, fresh_queue, self._result_queue),
                daemon=True,
            )
            replacement.start()
        finally:
            _SHM_STATIC = None
        self._workers[index] = (replacement, fresh_queue)

    # -- broadcast segment ------------------------------------------------ #
    def _broadcast(self, global_vec: np.ndarray) -> None:
        """Copy the global vector into the segment, re-creating it on a new shape or dtype."""
        # Keyed on (shape, dtype): a dtype flip re-creates the segment
        # (fresh name), which is what tells workers to re-map it.
        if (self._segment is None or self._segment_vector.shape != global_vec.shape
                or self._segment_vector.dtype != global_vec.dtype):
            self._release_segment()
            from multiprocessing import shared_memory

            self._segment = shared_memory.SharedMemory(
                create=True, size=global_vec.nbytes)
            self._segment_vector = np.ndarray(global_vec.shape, dtype=global_vec.dtype,
                                              buffer=self._segment.buf)
        self._segment_vector[...] = global_vec

    def _release_segment(self) -> None:
        if self._segment is None:
            return
        # Drop the exported view first: SharedMemory.close() refuses while
        # buffer views are alive.
        self._segment_vector = None
        self._segment.close()
        try:
            self._segment.unlink()
        except FileNotFoundError:  # pragma: no cover - already reaped
            pass
        self._segment = None

    def _round_header(self, context: "FLContext") -> Dict[str, object]:
        """The start-of-round broadcast message (see :func:`_shm_worker_main`)."""
        return {
            "shm_name": self._segment.name,
            "size": self._segment_vector.size,
            "dtype": self._segment_vector.dtype.str,
            "config": context.config,
            "ema": context.ema.state_dict(),
            "round_index": context.round_index,
            "server_storage": context.server_storage,
        }

    # -- round execution -------------------------------------------------- #
    def iter_round(self, strategy, model_fn, jobs, global_vec, context):
        """Stream one wave through the pool, healing dead workers in place.

        A worker found dead has its in-flight job yielded as a
        :class:`~repro.fl.errors.WorkerDied` outcome (consuming that job's
        attempt) and is respawned *in place* — same slot, same result queue,
        same broadcast segment — so the pool is back at full strength for the
        remaining jobs without re-packing the weights.  A worker that fails
        on the round header itself fails the whole round with that error: it
        has no valid context to train any job with.
        """
        jobs = list(jobs)
        if not jobs:
            return
        _require_fork_platform(self.name)
        workers = self._effective_workers(len(jobs))
        self._ensure_pool(strategy, model_fn, workers)
        self._broadcast(global_vec)
        header = self._round_header(context)
        active = range(workers)
        for index in active:
            self._workers[index][1].put(("round", header))
        pending = deque(range(len(jobs)))
        in_flight: Dict[int, int] = {}  # worker slot -> job position
        buffered: Dict[int, Outcome] = {}  # job position -> outcome

        def dispatch(index: int) -> None:
            if pending:
                position = pending.popleft()
                spec, attempt = jobs[position]
                self._send_client(self._workers[index][1], position, spec,
                                  context, attempt)
                in_flight[index] = position

        for index in active:
            dispatch(index)
        try:
            # Invariant: pending jobs imply in-flight jobs — every arrival
            # dispatches the next pending job, and healing re-dispatches after
            # a respawn — so a position not yet buffered is always in flight.
            for next_position in range(len(jobs)):
                while next_position not in buffered:
                    try:
                        message = self._result_queue.get(timeout=0.25)
                    except queue_module.Empty:
                        self._heal_workers(active, in_flight, jobs, buffered,
                                           header, dispatch, context)
                        continue
                    tag, worker_index, position = message[0], message[1], message[2]
                    if position < 0:
                        # The worker failed on the ("round", header) message.
                        raise message[3]
                    if in_flight.get(worker_index) == position:
                        del in_flight[worker_index]
                    if tag == "ok":
                        (_, _, _, vector, num_samples, train_loss, init_loss,
                         client_id, metadata) = message
                        buffered[position] = ClientResult(
                            vector=vector, num_samples=num_samples,
                            train_loss=train_loss, init_loss=init_loss,
                            client_id=client_id, metadata=metadata)
                    else:
                        buffered[position] = message[3]
                    dispatch(worker_index)
                yield buffered.pop(next_position)
        except BaseException:
            # A failed or abandoned round (GeneratorExit lands here too) may
            # leave workers mid-job and results in flight; terminate the pool
            # so stale results cannot leak into the next round.  The broadcast
            # segment stays for close() to unlink.  One abandonment is
            # *normal*: consumers driven by zip() never resume the generator
            # after its final yield, so GeneratorExit arrives with nothing in
            # flight — the workers are idle and the pool must survive.
            if in_flight:
                self._shutdown_pool(graceful=False)
            raise

    def _heal_workers(self, active, in_flight, jobs, buffered, header,
                      dispatch, context) -> None:
        """Detect dead workers, fail their in-flight jobs, respawn in place."""
        for index in active:
            process, _ = self._workers[index]
            if process.is_alive():
                continue
            position = in_flight.pop(index, None)
            if position is not None:
                spec, attempt = jobs[position]
                buffered[position] = WorkerDied(
                    f"shm worker (pid {process.pid}) died with exit code "
                    f"{process.exitcode} while training client "
                    f"{spec.client_id} on attempt {attempt} of round "
                    f"{context.round_index}", client_id=spec.client_id,
                    round_index=context.round_index, attempt=attempt)
            self._respawn_worker(index)
            self._workers[index][1].put(("round", header))
            dispatch(index)

    @staticmethod
    def _send_client(task_queue, position: int, spec: ClientSpec,
                     context: "FLContext", attempt: int = 0) -> None:
        task_queue.put(("client", position, spec,
                        context.client_storage.get(spec.client_id, {}),
                        attempt))

    def close(self) -> None:
        # The segment must be unlinked even if a wedged worker makes the
        # pool shutdown raise: a leaked /dev/shm segment would outlive the
        # process (and fail the fleet-scale CI leak gate).
        try:
            self._shutdown_pool(graceful=True)
        finally:
            self._release_segment()

    def __del__(self) -> None:  # pragma: no cover - interpreter-dependent
        try:
            self.close()
        except Exception:
            pass


EXECUTOR_REGISTRY: Registry[ClientExecutor] = Registry("executor", {
    "serial": SerialExecutor,
    "thread": ThreadExecutor,
    "shm": SharedMemoryExecutor,
})


def create_executor(name: str, **kwargs) -> ClientExecutor:
    """Instantiate an execution backend by registry name."""
    return EXECUTOR_REGISTRY.create(name, **kwargs)
