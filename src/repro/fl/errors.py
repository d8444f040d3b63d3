"""Structured executor/round failure hierarchy for the FL execution layer.

Every failure the execution backends can produce is an :class:`ExecutorError`
carrying *where* it happened — ``client_id``, ``round_index``, ``attempt`` —
instead of an ad-hoc ``RuntimeError`` whose context lives only in its message.
The classes subclass ``RuntimeError`` so existing ``except RuntimeError``
call sites (and tests matching on message text) keep working unchanged.

Failures must survive two hostile transports:

* **pickling across process boundaries** — worker processes return or raise
  them through ``multiprocessing`` queues/pools.  Default exception pickling
  re-calls ``__init__(*args)`` and would drop the keyword-only context, so
  :meth:`ExecutorError.__reduce__` rebuilds instances explicitly, preserving
  the context fields and the worker-side ``remote_traceback`` text (the
  chained ``__cause__`` itself cannot be pickled, so its formatted traceback
  travels instead).
* **deferred raising** — executors *yield* failures as outcomes instead of
  raising them (see ``ClientExecutor.iter_round``), so the instances double
  as plain data: under a :class:`~repro.fl.faults.FaultPolicy` the fault
  layer collects and retries them, and without one it raises the first.

This module is intentionally dependency-free: everything in ``repro.fl`` may
import it without cycles.
"""

from __future__ import annotations

from typing import Dict, Optional

__all__ = [
    "ExecutorError",
    "ClientFailure",
    "WorkerDied",
    "RoundTimeout",
    "RoundFailedError",
]


def _rebuild_executor_error(cls, message, client_id, round_index, attempt,
                            kind, remote_traceback):
    """Unpickle helper: rebuild an :class:`ExecutorError` with its context."""
    error = cls(message, client_id=client_id, round_index=round_index,
                attempt=attempt)
    error.kind = kind
    error.remote_traceback = remote_traceback
    return error


class ExecutorError(RuntimeError):
    """Base class of every structured failure the execution layer produces.

    Attributes
    ----------
    client_id / round_index / attempt:
        Which client job failed and on which retry attempt (``-1`` / ``0``
        when unknown, e.g. a worker that died between jobs).
    kind:
        Short failure classifier used for telemetry counters
        (``"crash"``, ``"worker_died"``, ``"timeout"``, ``"sanitize"``).
    remote_traceback:
        The formatted traceback captured inside a worker process, when the
        failure crossed a process boundary (``None`` otherwise).  The live
        ``__cause__`` chain cannot be pickled, so this is its durable form.
    """

    default_kind = "crash"

    def __init__(self, message: str, *, client_id: int = -1,
                 round_index: int = -1, attempt: int = 0,
                 kind: Optional[str] = None) -> None:
        super().__init__(message)
        self.client_id = int(client_id)
        self.round_index = int(round_index)
        self.attempt = int(attempt)
        self.kind = kind if kind is not None else self.default_kind
        self.remote_traceback: Optional[str] = None

    def __reduce__(self):
        return (_rebuild_executor_error,
                (type(self), str(self), self.client_id, self.round_index,
                 self.attempt, self.kind, self.remote_traceback))


class ClientFailure(ExecutorError):
    """One client's local update raised (or produced a rejected update).

    Wraps the original exception — chained via ``__cause__`` in-process, and
    as ``remote_traceback`` text across process boundaries — with the
    client/round/attempt context attached.  ``kind`` is ``"crash"`` for
    raised exceptions and ``"sanitize"`` for updates rejected at the
    aggregation boundary.
    """

    default_kind = "crash"


class WorkerDied(ExecutorError):
    """A worker process died (crash, kill, OOM) while owning a client job."""

    default_kind = "worker_died"


class RoundTimeout(ExecutorError):
    """A client exceeded the round's per-client wall-clock deadline."""

    default_kind = "timeout"


class RoundFailedError(ExecutorError):
    """A fault-tolerant round lost its quorum: fewer than ``min_clients`` survived.

    Carries the structured post-mortem: how many clients succeeded out of the
    selection, the configured quorum, and the *last* failure message per
    failed client.
    """

    default_kind = "quorum"

    def __init__(self, message: str, *, round_index: int = -1,
                 num_ok: int = 0, num_selected: int = 0, min_clients: int = 0,
                 failures: Optional[Dict[int, str]] = None) -> None:
        super().__init__(message, round_index=round_index)
        self.num_ok = int(num_ok)
        self.num_selected = int(num_selected)
        self.min_clients = int(min_clients)
        self.failures: Dict[int, str] = dict(failures or {})

    def __reduce__(self):  # structured fields differ from the base class
        return (_rebuild_round_failed,
                (str(self), self.round_index, self.num_ok, self.num_selected,
                 self.min_clients, self.failures, self.remote_traceback))


def _rebuild_round_failed(message, round_index, num_ok, num_selected,
                          min_clients, failures, remote_traceback):
    """Unpickle helper for :class:`RoundFailedError`."""
    error = RoundFailedError(message, round_index=round_index, num_ok=num_ok,
                             num_selected=num_selected, min_clients=min_clients,
                             failures=failures)
    error.remote_traceback = remote_traceback
    return error
