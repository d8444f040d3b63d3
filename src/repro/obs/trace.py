"""Tracing layer: nested spans over wall clock and (async) virtual clock.

A :class:`Tracer` records :class:`SpanRecord` entries into a bounded ring
buffer (``collections.deque(maxlen=...)``) so it is cheap enough to leave
on for long runs — old spans fall off the front instead of growing memory.
Each thread keeps its own current-span stack, so spans opened concurrently
on several threads nest correctly without locking; the deque append itself
is atomic under the GIL.

Two clocks can be recorded per span: wall time (``time.perf_counter``
offsets from the tracer's epoch) always, and — when a virtual clock has
been registered via :meth:`Tracer.set_virtual_clock` — the simulated-time
interval of the async event loop as ``vstart``/``vduration``.

Worker processes do not hold a tracer; they ship compact per-client
payloads back through the executor result path (``result.metadata["obs"]``)
which :func:`merge_client_spans` folds into the run-level trace as
synthetic client/kernel spans.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional

from .metrics import MetricsRegistry

__all__ = ["SpanRecord", "Tracer", "merge_client_spans"]

DEFAULT_RING_SIZE = 65536


@dataclass
class SpanRecord:
    """One completed span or instant, in seconds relative to the tracer epoch."""

    name: str
    start: float
    duration: float
    tid: str = "main"
    parent: Optional[str] = None
    kind: str = "span"  # "span" | "instant"
    vstart: Optional[float] = None
    vduration: Optional[float] = None
    attrs: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {"name": self.name, "start": self.start,
                                "duration": self.duration, "tid": self.tid,
                                "kind": self.kind}
        if self.parent is not None:
            data["parent"] = self.parent
        if self.vstart is not None:
            data["vstart"] = self.vstart
            data["vduration"] = self.vduration
        if self.attrs:
            data["attrs"] = self.attrs
        return data


class _Span:
    """Context manager for one live span; exposes ``.start`` while open."""

    __slots__ = ("tracer", "name", "attrs", "parent", "start", "vstart")

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, Any]):
        self.tracer = tracer
        self.name = name
        self.attrs = attrs

    def __enter__(self) -> "_Span":
        stack = self.tracer._stack()
        self.parent = stack[-1] if stack else None
        self.start = self.tracer.now()
        self.vstart = self.tracer._virtual_now()
        stack.append(self.name)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        stack = self.tracer._stack()
        if stack and stack[-1] == self.name:
            stack.pop()
        end = self.tracer.now()
        vend = self.tracer._virtual_now()
        vduration = (vend - self.vstart
                     if self.vstart is not None and vend is not None else None)
        self.tracer.records.append(SpanRecord(
            name=self.name, start=self.start, duration=end - self.start,
            tid=_thread_tid(), parent=self.parent,
            vstart=self.vstart, vduration=vduration, attrs=self.attrs))


def _thread_tid() -> str:
    thread = threading.current_thread()
    if thread is threading.main_thread():
        return "main"
    return thread.name


class Tracer:
    """Run-level trace collector: spans, instants and attached metrics."""

    def __init__(self, maxlen: int = DEFAULT_RING_SIZE):
        self._epoch = time.perf_counter()
        self.records: Deque[SpanRecord] = deque(maxlen=maxlen)
        self.metrics = MetricsRegistry()
        self._local = threading.local()
        self._virtual_clock: Optional[Callable[[], float]] = None

    def now(self) -> float:
        """Wall-clock seconds since this tracer was created."""
        return time.perf_counter() - self._epoch

    def set_virtual_clock(self, clock: Optional[Callable[[], float]]) -> None:
        """Register a simulated-time source (async event loop clock).

        Once set, every span/instant also records its virtual interval.
        """
        self._virtual_clock = clock

    def _virtual_now(self) -> Optional[float]:
        clock = self._virtual_clock
        return float(clock()) if clock is not None else None

    def _stack(self) -> List[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def current_span(self) -> Optional[str]:
        """Name of the innermost open span on the calling thread."""
        stack = self._stack()
        return stack[-1] if stack else None

    def span(self, name: str, **attrs: Any) -> _Span:
        """Open a nested span; use as ``with tracer.span("round", index=3):``."""
        return _Span(self, name, attrs)

    def instant(self, name: str, **attrs: Any) -> None:
        """Record a zero-duration marker (event, gap annotation, ...)."""
        now = self.now()
        vnow = self._virtual_now()
        stack = self._stack()
        self.records.append(SpanRecord(
            name=name, start=now, duration=0.0, tid=_thread_tid(),
            parent=stack[-1] if stack else None, kind="instant",
            vstart=vnow, vduration=0.0 if vnow is not None else None,
            attrs=attrs))

    def add_span(self, name: str, start: float, duration: float, *,
                 tid: str = "main", parent: Optional[str] = None,
                 vstart: Optional[float] = None,
                 vduration: Optional[float] = None, **attrs: Any) -> None:
        """Append a synthetic span (e.g. reconstructed from a worker payload)."""
        self.records.append(SpanRecord(
            name=name, start=start, duration=duration, tid=tid, parent=parent,
            vstart=vstart, vduration=vduration, attrs=attrs))

    def to_dicts(self) -> List[Dict[str, Any]]:
        return [record.to_dict() for record in self.records]


def merge_client_spans(tracer: Tracer, start: float, results,
                       device_by_id: Optional[Dict[int, str]] = None) -> None:
    """Fold executor-shipped obs payloads into the run trace.

    ``results`` are client results whose ``metadata`` may carry an ``"obs"``
    payload packed by :func:`repro.fl.execution.run_client` — ``{"duration":
    seconds, "kernels": {name: [calls, seconds]}}``.  Each becomes a
    ``client_update`` span on its own ``client-<id>`` track, anchored at
    ``start`` (workers have no shared epoch, so only durations are
    meaningful), with per-kernel child spans laid end to end.  The payload
    is *popped* from the metadata so downstream consumers (telemetry,
    checkpoints) see exactly what an untraced run would.
    """
    devices = device_by_id or {}
    for result in results:
        obs = result.metadata.pop("obs", None)
        if obs is None:
            continue
        cid = int(result.client_id)
        device = devices.get(cid, "")
        tid = f"client-{cid}"
        duration = float(obs.get("duration", 0.0))
        tracer.add_span("client_update", start, duration, tid=tid,
                        parent="clients", client_id=cid, device=device)
        offset = start
        for name in sorted(obs.get("kernels", ())):
            calls, seconds = obs["kernels"][name]
            tracer.add_span(f"kernel/{name}", offset, float(seconds), tid=tid,
                            parent="client_update", calls=int(calls))
            offset += float(seconds)
        tracer.metrics.counter("clients_trained", device=device).inc()
        tracer.metrics.histogram("client_update_seconds",
                                 device=device).observe(duration)
