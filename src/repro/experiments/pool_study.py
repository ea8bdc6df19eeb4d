"""Warm-pool study: keep-alive policy vs hit rate under Azure-like load.

The paper's premise is that warm starts are the only viable path for
uLL work — which makes the *pool hit rate* the FaaS platform's key
operational metric.  This study drives a multi-function Azure-like
trace against the platform under different keep-alive policies and
reports, per policy:

* warm hit rate (fraction of triggers served from the pool),
* cold starts incurred,
* mean initialization latency across all triggers,
* evictions and peak pooled sandbox count (the memory cost of warmth).

Policies compared: fixed windows of several lengths
(:class:`repro.faas.keepalive.FixedWindow`), and the adaptive ATC'20
hybrid histogram policy (:class:`repro.faas.keepalive.HybridHistogram`),
mirroring the fixed vs "Serverless in the Wild" trade-off.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.experiments.runner import fresh_platform
from repro.faas.function import FunctionSpec
from repro.faas.invocation import StartType
from repro.faas.keepalive import FixedWindow, HybridHistogram, PrewarmPolicy
from repro.faas.platform import FaaSPlatform
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry
from repro.sim.units import seconds, to_microseconds
from repro.traces.azure import AzureTraceConfig, synthesize_trace
from repro.workloads import ull_workloads


@dataclass
class PolicyOutcome:
    policy_name: str
    triggers: int
    warm_hits: int
    cold_starts: int
    evictions: int
    peak_pooled: int
    mean_init_us: float

    @property
    def hit_rate(self) -> float:
        return self.warm_hits / self.triggers if self.triggers else 0.0


@dataclass
class PoolStudyResult:
    outcomes: Dict[str, PolicyOutcome] = field(default_factory=dict)

    def outcome(self, policy_name: str) -> PolicyOutcome:
        return self.outcomes[policy_name]

    def policy_names(self) -> List[str]:
        return sorted(self.outcomes)

    def rows(self) -> List[Dict[str, object]]:
        from repro.experiments.rows import object_row

        return [
            object_row(self.outcome(name), extra=("hit_rate",))
            for name in self.policy_names()
        ]


def _default_policies() -> Dict[str, PrewarmPolicy]:
    # The adaptive baseline is the ATC'20 hybrid policy, binned finely
    # enough for a 120 s study and falling back to a 30 s window until
    # it has seen 4 gaps.
    return {
        "fixed-5s": FixedWindow(seconds(5)),
        "fixed-30s": FixedWindow(seconds(30)),
        "fixed-120s": FixedWindow(seconds(120)),
        "histogram": HybridHistogram(
            bin_width_ns=seconds(5),
            bins=60,
            min_observations=4,
            default_keep_ns=seconds(30),
        ),
    }


def run_pool_study(
    policies: Optional[Dict[str, PrewarmPolicy]] = None,
    functions: int = 8,
    duration_s: float = 120.0,
    mean_rate_per_function: float = 0.2,
    seed: int = 0,
) -> PoolStudyResult:
    """Replay one synthesized trace against each keep-alive policy."""
    trace = synthesize_trace(
        AzureTraceConfig(
            functions=functions,
            duration_s=duration_s,
            mean_rate_per_function=mean_rate_per_function,
            burst_on_fraction=0.4,
        ),
        random.Random(seed ^ 0xA27),
    )
    result = PoolStudyResult()
    for policy_name, policy in (policies or _default_policies()).items():
        result.outcomes[policy_name] = _run_policy(
            policy_name, policy, trace, seed
        )
    return result


def _run_policy(policy_name, policy, trace, seed) -> PolicyOutcome:
    engine = Engine()
    faas = FaaSPlatform(
        engine=engine,
        virt=fresh_platform("firecracker"),
        rngs=RngRegistry(seed),
        policy=policy,
    )
    bodies = ull_workloads()
    for index, function in enumerate(trace.function_names()):
        workload = type(bodies[index % len(bodies)])()
        workload.name = function  # one deployment per trace function
        faas.register(FunctionSpec(function, workload, memory_mb=128))

    stats = {
        "triggers": 0, "warm_hits": 0, "cold_starts": 0, "peak_pooled": 0,
    }
    init_us: List[float] = []
    last_trigger_ns: Dict[str, int] = {}

    def fire(function: str) -> None:
        stats["triggers"] += 1
        now = engine.now
        previous = last_trigger_ns.get(function)
        if previous is not None:
            policy.observe_gap(function, now - previous)
        last_trigger_ns[function] = now
        spec = faas.registry.get(function)
        if faas.pool.size(function) > 0:
            stats["warm_hits"] += 1
            start = StartType.HORSE if spec.is_ull else StartType.WARM
        else:
            stats["cold_starts"] += 1
            start = StartType.COLD
        invocation = faas.trigger(function, start)
        engine.schedule_at(
            invocation.exec_end_ns,
            lambda: init_us.append(to_microseconds(invocation.initialization_ns)),
        )
        stats["peak_pooled"] = max(stats["peak_pooled"], faas.pool.total_size())

    for function in trace.function_names():
        for when in trace.invocations[function]:
            engine.schedule_at(when, lambda function=function: fire(function))
    engine.run(until=seconds(trace.config.duration_s) + seconds(10))
    stats["peak_pooled"] = max(stats["peak_pooled"], faas.pool.total_size())

    outcome = PolicyOutcome(
        policy_name=policy_name,
        triggers=stats["triggers"],
        warm_hits=stats["warm_hits"],
        cold_starts=stats["cold_starts"],
        evictions=faas.pool.evictions,
        peak_pooled=stats["peak_pooled"],
        mean_init_us=sum(init_us) / len(init_us) if init_us else 0.0,
    )
    engine.close()
    return outcome


def render_pool_study(result: PoolStudyResult) -> str:
    lines = [
        f"{'policy':14s} {'triggers':>8s} {'hits':>6s} {'hit %':>7s} "
        f"{'cold':>6s} {'evict':>6s} {'peak':>5s} {'init us':>9s}"
    ]
    for name in result.policy_names():
        outcome = result.outcome(name)
        lines.append(
            f"{outcome.policy_name:14s} {outcome.triggers:8d} "
            f"{outcome.warm_hits:6d} {100 * outcome.hit_rate:6.2f}% "
            f"{outcome.cold_starts:6d} {outcome.evictions:6d} "
            f"{outcome.peak_pooled:5d} {outcome.mean_init_us:9.2f}"
        )
    return "\n".join(lines)
