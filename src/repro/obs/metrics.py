"""Metrics registry: counters and histograms with labeled series.

A :class:`MetricsRegistry` hands out instruments keyed by ``(name, labels)``
— asking twice for the same key returns the same instrument, so callers can
write ``registry.counter("clients_trained", device=...).inc()`` in a hot
loop without bookkeeping.  Instruments are plain Python objects (no locks:
FL telemetry is single-writer per registry) and the whole registry renders
to a JSON-compatible snapshot for export.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

__all__ = ["Counter", "Histogram", "MetricsRegistry"]

_LabelKey = Tuple[Tuple[str, Any], ...]


class Counter:
    """Monotonically increasing count (``inc``) or sum (``add``)."""

    __slots__ = ("name", "labels", "value")

    kind = "counter"

    def __init__(self, name: str, labels: Dict[str, Any]):
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0, got {amount}")
        self.value += amount

    def add(self, amount: float) -> None:
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0, got {amount}")
        self.value += amount

    def summary(self) -> Dict[str, Any]:
        return {"value": self.value}


class Histogram:
    """Streaming summary of observed values (count/sum/min/max/mean).

    O(1) state per series — enough for per-phase latency summaries without
    bucket configuration; full distributions belong in the trace, not here.
    """

    __slots__ = ("name", "labels", "count", "total", "min", "max")

    kind = "histogram"

    def __init__(self, name: str, labels: Dict[str, Any]):
        self.name = name
        self.labels = labels
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def summary(self) -> Dict[str, Any]:
        if not self.count:
            return {"count": 0, "sum": 0.0}
        return {"count": self.count, "sum": self.total,
                "min": self.min, "max": self.max, "mean": self.mean}


_KINDS = {"counter": Counter, "histogram": Histogram}


class MetricsRegistry:
    """Process-local registry of labeled instrument series."""

    def __init__(self) -> None:
        self._series: Dict[Tuple[str, str, _LabelKey], Any] = {}

    def _get(self, kind: str, name: str, labels: Dict[str, Any]):
        key = (kind, name, tuple(sorted(labels.items())))
        instrument = self._series.get(key)
        if instrument is None:
            instrument = self._series[key] = _KINDS[kind](name, dict(labels))
        elif instrument.kind != kind:  # pragma: no cover - keyed by kind
            raise TypeError(f"metric {name!r} already registered as {instrument.kind}")
        return instrument

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get("counter", name, labels)

    def histogram(self, name: str, **labels: Any) -> Histogram:
        return self._get("histogram", name, labels)

    def series(self, name: str) -> List[Any]:
        """All instruments registered under ``name``, in registration order.

        Registration order (not sorted) on purpose: consumers rebuilding
        legacy outputs from the registry need to fold floats in the same
        order the legacy dict-of-accumulators did.  :meth:`snapshot` sorts.
        """
        return [inst for (_, key_name, _), inst in self._series.items()
                if key_name == name]

    def __len__(self) -> int:
        return len(self._series)

    def snapshot(self) -> List[Dict[str, Any]]:
        """JSON-compatible dump of every series, deterministically ordered."""
        out = []
        for (kind, name, _), inst in sorted(self._series.items(),
                                            key=lambda kv: kv[0]):
            out.append({"name": name, "kind": kind,
                        "labels": {str(k): v for k, v in inst.labels.items()},
                        **inst.summary()})
        return out
