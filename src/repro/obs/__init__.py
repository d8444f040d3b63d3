"""`repro.obs` — unified tracing, metrics and per-kernel profiling.

Three cooperating layers, all observational (they never perturb training
results or fingerprints):

- :class:`Tracer` / :class:`SpanRecord` (``obs.trace``): nested spans over
  wall clock and — in async runs — the simulated virtual clock, in a
  bounded ring buffer.
- :class:`MetricsRegistry` (``obs.metrics``): labeled counter and
  histogram series backing the tracer's per-client counts and
  `AsyncTelemetry`.
- :data:`PROFILER` (``obs.profiling``): per-kernel timers wrapped around
  the engine kernels only while ``FLConfig.profile`` is on; off, the
  kernels are the undecorated functions.

Exporters (``obs.export``) render a run's trace as Chrome ``trace_event``
JSON (Perfetto-loadable), a JSONL event log, and a per-phase summary —
stored as result-neutral artifacts in the run's store entry.
"""

from .export import (
    chrome_trace,
    export_run_obs,
    summarize_trace,
    write_chrome_trace,
    write_events_jsonl,
    write_obs_summary,
)
from .metrics import Counter, Histogram, MetricsRegistry
from .profiling import PROFILER, KernelProfiler, profile_kernels
from .trace import SpanRecord, Tracer, merge_client_spans

__all__ = [
    "Counter",
    "Histogram",
    "KernelProfiler",
    "MetricsRegistry",
    "PROFILER",
    "SpanRecord",
    "Tracer",
    "chrome_trace",
    "export_run_obs",
    "merge_client_spans",
    "profile_kernels",
    "summarize_trace",
    "write_chrome_trace",
    "write_events_jsonl",
    "write_obs_summary",
]
