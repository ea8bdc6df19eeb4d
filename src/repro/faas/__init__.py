"""FaaS platform layer: functions, triggers, pools, start strategies."""

from repro import lazy_exports

_EXPORTS = {
    "AutoscalerConfig": "repro.faas.autoscaler",
    "PoolAutoscaler": "repro.faas.autoscaler",
    "FaaSCluster": "repro.faas.cluster",
    "LeastLoadedPlacement": "repro.faas.cluster",
    "NodeHealth": "repro.faas.cluster",
    "NoHealthyHostError": "repro.faas.cluster",
    "PlacementPolicy": "repro.faas.cluster",
    "RoundRobinPlacement": "repro.faas.cluster",
    "WarmAffinityPlacement": "repro.faas.cluster",
    "plan_start": "repro.faas.cluster",
    "FunctionRegistry": "repro.faas.function",
    "FunctionSpec": "repro.faas.function",
    "FaaSGateway": "repro.faas.gateway",
    "FixedWindow": "repro.faas.keepalive",
    "HybridHistogram": "repro.faas.keepalive",
    "IdleHistogram": "repro.faas.keepalive",
    "NoKeepAlive": "repro.faas.keepalive",
    "PolicyDecision": "repro.faas.keepalive",
    "PrewarmPolicy": "repro.faas.keepalive",
    "make_policy": "repro.faas.keepalive",
    "Invocation": "repro.faas.invocation",
    "StartType": "repro.faas.invocation",
    "FaaSPlatform": "repro.faas.platform",
    "SandboxPool": "repro.faas.pool",
    "PrewarmConfig": "repro.faas.prewarm",
    "PrewarmResult": "repro.faas.prewarm",
    "render_replay": "repro.faas.prewarm",
    "run_replay": "repro.faas.prewarm",
    "ColdStart": "repro.faas.startup",
    "HorseStart": "repro.faas.startup",
    "PoolMissError": "repro.faas.startup",
    "RestoreStart": "repro.faas.startup",
    "StartOutcome": "repro.faas.startup",
    "StartStrategy": "repro.faas.startup",
    "WarmStart": "repro.faas.startup",
    "ALL_TRANSPORTS": "repro.faas.transport",
    "KERNEL_BYPASS": "repro.faas.transport",
    "LOCAL": "repro.faas.transport",
    "NANO_FABRIC": "repro.faas.transport",
    "TCP": "repro.faas.transport",
    "TransportKind": "repro.faas.transport",
    "TransportModel": "repro.faas.transport",
}

__all__ = sorted(_EXPORTS)

__getattr__ = lazy_exports(__name__, _EXPORTS)
