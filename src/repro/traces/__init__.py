"""Invocation arrival modeling: processes, Azure-like synthesis, replay."""

from repro.traces.arrival import ArrivalProcess, PoissonArrivals
from repro.traces.azure import (
    AzureTraceConfig,
    SyntheticTrace,
    burst_arrival_stream,
    synthesize_trace,
)
from repro.traces.replay import (
    FunctionProfile,
    ReplayConfig,
    ReplayStats,
    SplitMix64,
    arrival_stream,
    function_profile,
    materialized_oracle,
    merged_stream,
    stream_seed,
)

__all__ = [
    "ArrivalProcess",
    "PoissonArrivals",
    "AzureTraceConfig",
    "SyntheticTrace",
    "burst_arrival_stream",
    "synthesize_trace",
    "FunctionProfile",
    "ReplayConfig",
    "ReplayStats",
    "SplitMix64",
    "arrival_stream",
    "function_profile",
    "materialized_oracle",
    "merged_stream",
    "stream_seed",
]
