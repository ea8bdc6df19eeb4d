"""repro.resilience — failure domains and the machinery to survive them.

The HORSE paper evaluates a healthy single node; a deployable platform
must keep its latency promises while nodes crash, resumes hang, and
load spikes.  This package adds both sides of that story:

* :mod:`repro.resilience.failures` — seeded, replayable infrastructure
  failures: node crashes/recoveries through the sim engine, and
  transient / slow / hung resume faults through the hypervisor fault
  hooks (flaky hosts concentrate faults, the asymmetry breakers exploit);
* :mod:`repro.resilience.retry` — capped exponential backoff with full
  jitter, plus hedged (tied) requests for uLL functions;
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

from repro.resilience.breaker import (
    LEGAL_TRANSITIONS,
    BreakerConfig,
    BreakerState,
    BreakerTransition,
    CircuitBreaker,
)
from repro.resilience.checks import (
    all_resolved_checker,
    breaker_checker,
    cluster_accounting_checker,
    request_ledger_checker,
    resilience_registry,
)
from repro.resilience.degradation import (
    DEGRADATION_LADDER,
    AdmissionConfig,
    AdmissionController,
    DegradationStats,
    degrade,
    ladder_level,
)
from repro.resilience.failures import (
    FAILURE_KINDS,
    FailureConfig,
    FailureInjector,
    GatewayFailureConfig,
    GatewayFailureInjector,
)
from repro.resilience.gateway import (
    Attempt,
    Request,
    RequestState,
    ResilienceConfig,
    ResilientGateway,
)
from repro.resilience.policies import (
    DeadlineAwarePolicy,
    DispatchPolicy,
    MqfqStickyPolicy,
    PullQueuePolicy,
    PushPlacementPolicy,
    default_dispatch_policy,
    eligible_candidates,
    make_dispatch_policy,
)
from repro.resilience.retry import HedgePolicy, RetryPolicy

__all__ = [
    "LEGAL_TRANSITIONS",
    "BreakerConfig",
    "BreakerState",
    "BreakerTransition",
    "CircuitBreaker",
    "all_resolved_checker",
    "breaker_checker",
    "cluster_accounting_checker",
    "request_ledger_checker",
    "resilience_registry",
    "DEGRADATION_LADDER",
    "AdmissionConfig",
    "AdmissionController",
    "DegradationStats",
    "degrade",
    "ladder_level",
    "FAILURE_KINDS",
    "FailureConfig",
    "FailureInjector",
    "GatewayFailureConfig",
    "GatewayFailureInjector",
    "Attempt",
    "Request",
    "RequestState",
    "ResilienceConfig",
    "ResilientGateway",
    "DeadlineAwarePolicy",
    "DispatchPolicy",
    "MqfqStickyPolicy",
    "PullQueuePolicy",
    "PushPlacementPolicy",
    "default_dispatch_policy",
    "eligible_candidates",
    "make_dispatch_policy",
    "HedgePolicy",
    "RetryPolicy",
]
