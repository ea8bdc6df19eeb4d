"""Measurement and statistics toolkit for the evaluation."""

from repro.metrics.recorder import Breakdown, BreakdownRecorder
from repro.metrics.stats import (
    ConfidenceInterval,
    Summary,
    confidence_interval_95,
    mean,
    percentile,
    stddev,
    t_critical_95,
    variance,
)
from repro.metrics.usage import CpuWorkTracker, UsageSample, UsageSampler

__all__ = [
    "Breakdown",
    "BreakdownRecorder",
    "ConfidenceInterval",
    "Summary",
    "confidence_interval_95",
    "mean",
    "percentile",
    "stddev",
    "t_critical_95",
    "variance",
    "CpuWorkTracker",
    "UsageSample",
    "UsageSampler",
]
