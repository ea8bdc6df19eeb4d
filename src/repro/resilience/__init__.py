"""repro.resilience — failure domains and the machinery to survive them.

The HORSE paper evaluates a healthy single node; a deployable platform
must keep its latency promises while nodes crash, resumes hang, and
load spikes.  This package adds both sides of that story:

* :mod:`repro.resilience.failures` — seeded, replayable infrastructure
  failures: node crashes/recoveries through the sim engine, and
  transient / slow / hung resume faults through the hypervisor fault
  hooks (flaky hosts concentrate faults, the asymmetry breakers exploit);
* :mod:`repro.resilience.retry` — capped exponential backoff with full
  jitter, plus the hedged (tied) request constants for uLL functions;
* :mod:`repro.resilience.breaker` — per-node circuit breakers
  (closed / open / half-open) steering placement away from sick hosts;
* :mod:`repro.resilience.degradation` — the hot → warm → cold fallback
  ladder and a load-shedding admission controller with reserved
  headroom for high-priority (uLL) work;
* :mod:`repro.resilience.gateway` — :class:`ResilientGateway`, the
  request layer composing all of the above over a
  :class:`~repro.faas.cluster.FaaSCluster`;
* :mod:`repro.resilience.checks` — ``repro.check`` checkers proving a
  chaos run sound (legal breaker transitions, no request both shed and
  completed, no lost invocations).
"""

from repro import lazy_exports

_EXPORTS = {
    "LEGAL_TRANSITIONS": "repro.resilience.breaker",
    "BreakerConfig": "repro.resilience.breaker",
    "BreakerState": "repro.resilience.breaker",
    "BreakerTransition": "repro.resilience.breaker",
    "CircuitBreaker": "repro.resilience.breaker",
    "all_resolved_checker": "repro.resilience.checks",
    "breaker_checker": "repro.resilience.checks",
    "cluster_accounting_checker": "repro.resilience.checks",
    "request_ledger_checker": "repro.resilience.checks",
    "resilience_registry": "repro.resilience.checks",
    "DEGRADATION_LADDER": "repro.resilience.degradation",
    "AdmissionConfig": "repro.resilience.degradation",
    "AdmissionController": "repro.resilience.degradation",
    "DegradationStats": "repro.resilience.degradation",
    "degrade": "repro.resilience.degradation",
    "ladder_level": "repro.resilience.degradation",
    "FAILURE_KINDS": "repro.resilience.failures",
    "FailureConfig": "repro.resilience.failures",
    "FailureInjector": "repro.resilience.failures",
    "GatewayFailureConfig": "repro.resilience.failures",
    "GatewayFailureInjector": "repro.resilience.failures",
    "Attempt": "repro.resilience.gateway",
    "Request": "repro.resilience.gateway",
    "RequestState": "repro.resilience.gateway",
    "ResilienceConfig": "repro.resilience.gateway",
    "ResilientGateway": "repro.resilience.gateway",
    "DeadlineAwarePolicy": "repro.resilience.policies",
    "DispatchPolicy": "repro.resilience.policies",
    "MqfqStickyPolicy": "repro.resilience.policies",
    "PullQueuePolicy": "repro.resilience.policies",
    "PushPlacementPolicy": "repro.resilience.policies",
    "default_dispatch_policy": "repro.resilience.policies",
    "eligible_candidates": "repro.resilience.policies",
    "make_dispatch_policy": "repro.resilience.policies",
}

__all__ = sorted(_EXPORTS)

__getattr__ = lazy_exports(__name__, _EXPORTS)
