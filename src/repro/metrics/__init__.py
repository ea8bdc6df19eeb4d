"""Measurement and statistics toolkit for the evaluation."""

from repro import lazy_exports

_EXPORTS = {
    "Breakdown": "repro.metrics.recorder",
    "BreakdownRecorder": "repro.metrics.recorder",
    "ConfidenceInterval": "repro.metrics.stats",
    "Summary": "repro.metrics.stats",
    "confidence_interval_95": "repro.metrics.stats",
    "mean": "repro.metrics.stats",
    "percentile": "repro.metrics.stats",
    "stddev": "repro.metrics.stats",
    "t_critical_95": "repro.metrics.stats",
    "variance": "repro.metrics.stats",
    "CpuWorkTracker": "repro.metrics.usage",
    "UsageSample": "repro.metrics.usage",
    "UsageSampler": "repro.metrics.usage",
}

__all__ = sorted(_EXPORTS)

__getattr__ = lazy_exports(__name__, _EXPORTS)
