"""FaaS platform layer: functions, triggers, pools, start strategies."""

from repro.faas.autoscaler import AutoscalerConfig, PoolAutoscaler
from repro.faas.cluster import (
    FaaSCluster,
    LeastLoadedPlacement,
    NodeHealth,
    NoHealthyHostError,
    PlacementPolicy,
    RoundRobinPlacement,
    WarmAffinityPlacement,
    plan_start,
)
from repro.faas.function import FunctionRegistry, FunctionSpec
from repro.faas.gateway import FaaSGateway
from repro.faas.invocation import Invocation, StartType
from repro.faas.platform import FaaSPlatform
from repro.faas.pool import SandboxPool
from repro.faas.prewarm import (
    FixedWindow,
    HybridHistogram,
    IdleHistogram,
    NoKeepAlive,
    PolicyDecision,
    PrewarmConfig,
    PrewarmPolicy,
    PrewarmResult,
    make_policy,
    render_replay,
    run_replay,
)
from repro.faas.startup import (
    ColdStart,
    HorseStart,
    PoolMissError,
    RestoreStart,
    StartOutcome,
    StartStrategy,
    WarmStart,
)
from repro.faas.transport import (
    ALL_TRANSPORTS,
    KERNEL_BYPASS,
    LOCAL,
    NANO_FABRIC,
    TCP,
    TransportKind,
    TransportModel,
)

__all__ = [
    "AutoscalerConfig",
    "PoolAutoscaler",
    "FaaSCluster",
    "LeastLoadedPlacement",
    "NodeHealth",
    "NoHealthyHostError",
    "PlacementPolicy",
    "RoundRobinPlacement",
    "WarmAffinityPlacement",
    "plan_start",
    "ALL_TRANSPORTS",
    "KERNEL_BYPASS",
    "LOCAL",
    "NANO_FABRIC",
    "TCP",
    "TransportKind",
    "TransportModel",
    "FunctionRegistry",
    "FunctionSpec",
    "FaaSGateway",
    "Invocation",
    "StartType",
    "FaaSPlatform",
    "SandboxPool",
    "FixedWindow",
    "HybridHistogram",
    "IdleHistogram",
    "NoKeepAlive",
    "PolicyDecision",
    "PrewarmConfig",
    "PrewarmPolicy",
    "PrewarmResult",
    "make_policy",
    "render_replay",
    "run_replay",
    "ColdStart",
    "HorseStart",
    "PoolMissError",
    "RestoreStart",
    "StartOutcome",
    "StartStrategy",
    "WarmStart",
]
