"""End-to-end observability for the reproduction.

The ``repro.obs`` subsystem is the simulator's one structured-event
and metric sink, and answers *where do the nanoseconds go?*  It provides

* nested timed :class:`Span`/:class:`Tracer` keyed to the sim clock
  (:mod:`repro.obs.span`), instrumenting the full resume hot path;
* a :class:`MetricRegistry` of counters, gauges, and fixed-bucket
  ns-latency histograms (:mod:`repro.obs.metrics`), with the resume
  phase taxonomy in :mod:`repro.obs.phases`;
* Chrome trace-event JSON (Perfetto-loadable) and lossless JSONL
  exporters (:mod:`repro.obs.export`);
* the :class:`Observability` bundle, ``NULL_OBS`` null object, and the
  :func:`activate` context that lets the CLI trace any experiment
  without threading parameters through every driver
  (:mod:`repro.obs.context`);
* the deterministic :class:`SubsystemProfiler` and :func:`profiling`
  context — per-subsystem event attribution with byte-stable
  collapsed-stack/hotspot artifacts (:mod:`repro.obs.profile`).

Everything is opt-in: components default to ``NULL_OBS`` and pay one
``enabled`` attribute check per instrumented operation.
"""

from repro.obs.context import NULL_OBS, Observability, activate, current
from repro.obs.export import (
    iter_jsonl,
    read_jsonl,
    to_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS_NS,
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
    NULL_REGISTRY,
)
from repro.obs.phases import (
    RESUME_DISPATCH_NS,
    RESUME_LOAD_UPDATE_NS,
    RESUME_MERGE_NS,
    RESUME_PHASE_METRICS,
    RESUME_TOTAL_NS,
    dispatch_ns,
    observe_resume,
)
from repro.obs.profile import (
    SubsystemProfiler,
    current_profiler,
    profiling,
)
from repro.obs.span import NULL_TRACER, OpenSpan, Span, Timeline, Tracer

__all__ = [
    "NULL_OBS",
    "NULL_REGISTRY",
    "NULL_TRACER",
    "Counter",
    "DEFAULT_LATENCY_BUCKETS_NS",
    "Gauge",
    "Histogram",
    "MetricRegistry",
    "Observability",
    "OpenSpan",
    "RESUME_DISPATCH_NS",
    "RESUME_LOAD_UPDATE_NS",
    "RESUME_MERGE_NS",
    "RESUME_PHASE_METRICS",
    "RESUME_TOTAL_NS",
    "Span",
    "SubsystemProfiler",
    "Timeline",
    "Tracer",
    "activate",
    "current",
    "current_profiler",
    "dispatch_ns",
    "iter_jsonl",
    "observe_resume",
    "profiling",
    "read_jsonl",
    "to_chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
]
