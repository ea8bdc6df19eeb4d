"""Function bodies used by the evaluation: the three uLL categories,
the long-running thumbnail generator, and the sysbench CPU hog."""

from repro import lazy_exports

_EXPORTS = {
    "ARRAY_SIZE": "repro.workloads.array_filter",
    "ArrayFilterWorkload": "repro.workloads.array_filter",
    "FilterRequest": "repro.workloads.array_filter",
    "Workload": "repro.workloads.base",
    "WorkloadCategory": "repro.workloads.base",
    "truncated_normal_ns": "repro.workloads.base",
    "FirewallDecision": "repro.workloads.firewall",
    "FirewallWorkload": "repro.workloads.firewall",
    "RequestHeader": "repro.workloads.firewall",
    "InferenceRequest": "repro.workloads.ml_inference",
    "InferenceResult": "repro.workloads.ml_inference",
    "MlInferenceWorkload": "repro.workloads.ml_inference",
    "NatError": "repro.workloads.nat",
    "NatRule": "repro.workloads.nat",
    "NatWorkload": "repro.workloads.nat",
    "MarketState": "repro.workloads.orderbook",
    "Order": "repro.workloads.orderbook",
    "OrderRiskWorkload": "repro.workloads.orderbook",
    "RiskDecision": "repro.workloads.orderbook",
    "RiskVerdict": "repro.workloads.orderbook",
    "Side": "repro.workloads.orderbook",
    "PrimeRequest": "repro.workloads.sysbench",
    "SysbenchCpuWorkload": "repro.workloads.sysbench",
    "primes_up_to": "repro.workloads.sysbench",
    "Image": "repro.workloads.thumbnail",
    "ObjectStore": "repro.workloads.thumbnail",
    "ThumbnailRequest": "repro.workloads.thumbnail",
    "ThumbnailWorkload": "repro.workloads.thumbnail",
    "ull_workloads": "repro.workloads.ull",
}

__all__ = sorted(_EXPORTS)

__getattr__ = lazy_exports(__name__, _EXPORTS)
