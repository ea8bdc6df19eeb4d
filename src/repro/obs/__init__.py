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
  one run context, :func:`activate`, that lets the CLI trace, profile
  or check any experiment without threading parameters through every
  driver (:mod:`repro.obs.context`);
* the deterministic :class:`SubsystemProfiler` — per-subsystem event
  attribution with byte-stable collapsed-stack/hotspot artifacts
  (:mod:`repro.obs.profile`).

Everything is opt-in: components default to ``NULL_OBS`` and pay one
``enabled`` attribute check per instrumented operation.
"""

from repro import lazy_exports

_EXPORTS = {
    "NULL_OBS": "repro.obs.context",
    "Observability": "repro.obs.context",
    "activate": "repro.obs.context",
    "current": "repro.obs.context",
    "iter_jsonl": "repro.obs.export",
    "read_jsonl": "repro.obs.export",
    "to_chrome_trace": "repro.obs.export",
    "write_chrome_trace": "repro.obs.export",
    "write_jsonl": "repro.obs.export",
    "DEFAULT_LATENCY_BUCKETS_NS": "repro.obs.metrics",
    "Counter": "repro.obs.metrics",
    "Gauge": "repro.obs.metrics",
    "Histogram": "repro.obs.metrics",
    "MetricRegistry": "repro.obs.metrics",
    "NULL_REGISTRY": "repro.obs.metrics",
    "RESUME_DISPATCH_NS": "repro.obs.phases",
    "RESUME_LOAD_UPDATE_NS": "repro.obs.phases",
    "RESUME_MERGE_NS": "repro.obs.phases",
    "RESUME_PHASE_METRICS": "repro.obs.phases",
    "RESUME_TOTAL_NS": "repro.obs.phases",
    "fold_resumes": "repro.obs.phases",
    "SubsystemProfiler": "repro.obs.profile",
    "NULL_TRACER": "repro.obs.span",
    "OpenSpan": "repro.obs.span",
    "Span": "repro.obs.span",
    "Timeline": "repro.obs.span",
    "Tracer": "repro.obs.span",
}

__all__ = sorted(_EXPORTS)

__getattr__ = lazy_exports(__name__, _EXPORTS)
