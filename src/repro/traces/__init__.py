"""Invocation arrival modeling: processes, Azure-like synthesis, replay."""

from repro import lazy_exports

_EXPORTS = {
    "ArrivalProcess": "repro.traces.arrival",
    "PoissonArrivals": "repro.traces.arrival",
    "AzureTraceConfig": "repro.traces.azure",
    "SyntheticTrace": "repro.traces.azure",
    "burst_arrival_stream": "repro.traces.azure",
    "synthesize_trace": "repro.traces.azure",
    "FunctionProfile": "repro.traces.replay",
    "ReplayConfig": "repro.traces.replay",
    "ReplayStats": "repro.traces.replay",
    "SplitMix64": "repro.traces.replay",
    "arrival_stream": "repro.traces.replay",
    "function_profile": "repro.traces.replay",
    "materialized_oracle": "repro.traces.replay",
    "merged_stream": "repro.traces.replay",
    "stream_seed": "repro.traces.replay",
}

__all__ = sorted(_EXPORTS)

__getattr__ = lazy_exports(__name__, _EXPORTS)
