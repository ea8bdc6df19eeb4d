"""Cluster placement study (multi-host extension).

Routes an Azure-like multi-function trace across a small cluster under
each placement policy and reports, per policy:

* cold-start fallbacks (warm-path misses on the chosen host),
* load balance across hosts (coefficient of variation of per-host
  trigger counts),
* mean initialization latency.

Warm-affinity should dominate on cold fallbacks (it looks for a pooled
sandbox before placing), round-robin on raw balance.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.experiments.chaos import _close_cell
from repro.faas.cluster import (
    FaaSCluster,
    LeastLoadedPlacement,
    PlacementPolicy,
    RoundRobinPlacement,
    WarmAffinityPlacement,
)
from repro.faas.function import FunctionSpec
from repro.faas.invocation import StartType
from repro.metrics.stats import mean, stddev
from repro.sim.units import seconds, to_microseconds
from repro.traces.azure import AzureTraceConfig, synthesize_trace
from repro.workloads import SysbenchCpuWorkload


@dataclass
class PlacementOutcome:
    policy: str
    triggers: int
    cold_fallbacks: int
    balance_cv: float            # stddev/mean of per-host trigger counts
    mean_init_us: float

    @property
    def cold_rate(self) -> float:
        return self.cold_fallbacks / self.triggers if self.triggers else 0.0


@dataclass
class ClusterStudyResult:
    outcomes: Dict[str, PlacementOutcome] = field(default_factory=dict)
    hosts: int = 0

    def outcome(self, policy: str) -> PlacementOutcome:
        return self.outcomes[policy]

    def policies(self) -> List[str]:
        return sorted(self.outcomes)

    def rows(self) -> List[Dict[str, object]]:
        from repro.experiments.rows import object_row

        return [
            object_row(self.outcome(policy), extra=("cold_rate",))
            for policy in self.policies()
        ]


def _default_policies() -> Dict[str, PlacementPolicy]:
    return {
        "round-robin": RoundRobinPlacement(),
        "least-loaded": LeastLoadedPlacement(),
        "warm-affinity": WarmAffinityPlacement(),
    }


def run_cluster_study(
    hosts: int = 4,
    functions: int = 6,
    duration_s: float = 60.0,
    warm_per_host: int = 1,
    seed: int = 0,
    policies: Optional[Dict[str, PlacementPolicy]] = None,
) -> ClusterStudyResult:
    trace = synthesize_trace(
        AzureTraceConfig(
            functions=functions,
            duration_s=duration_s,
            mean_rate_per_function=1.5,
            burst_on_fraction=0.25,   # bursty enough to drain pools
        ),
        random.Random(seed ^ 0xC1),
    )
    result = ClusterStudyResult(hosts=hosts)
    for policy_name, policy in (policies or _default_policies()).items():
        cluster = FaaSCluster(hosts=hosts, seed=seed, placement=policy)
        for function in trace.function_names():
            # ~100 ms rounds: long enough that bursts overlap and a
            # host's single warm sandbox is often still busy, which is
            # what separates the placement policies.
            workload = SysbenchCpuWorkload()
            workload.name = function
            cluster.register(FunctionSpec(function, workload, memory_mb=128))
            cluster.provision_warm(function, per_host=warm_per_host)

        init_us: List[float] = []

        def fire(function: str) -> None:
            invocation = cluster.trigger(function, StartType.WARM)
            cluster.engine.schedule_at(
                invocation.exec_end_ns,
                lambda: init_us.append(
                    to_microseconds(invocation.initialization_ns)
                ),
            )

        for function in trace.function_names():
            for when in trace.invocations[function]:
                cluster.engine.schedule_at(
                    when, lambda function=function: fire(function)
                )
        cluster.engine.run(until=seconds(duration_s) + seconds(10))

        per_host = [
            cluster.stats.per_host_triggers.get(i, 0) for i in range(hosts)
        ]
        balance_cv = (
            stddev([float(c) for c in per_host]) / mean([float(c) for c in per_host])
            if any(per_host)
            else 0.0
        )
        result.outcomes[policy_name] = PlacementOutcome(
            policy=policy_name,
            triggers=cluster.stats.triggers,
            cold_fallbacks=cluster.stats.cold_fallbacks,
            balance_cv=balance_cv,
            mean_init_us=mean(init_us) if init_us else 0.0,
        )
        _close_cell(cluster.engine, [cluster])
    return result


def render_cluster_study(result: ClusterStudyResult) -> str:
    lines = [
        f"{'policy':14s} {'triggers':>8s} {'cold':>6s} {'cold %':>7s} "
        f"{'balance cv':>10s} {'init us':>9s}"
    ]
    for policy in result.policies():
        outcome = result.outcome(policy)
        lines.append(
            f"{outcome.policy:14s} {outcome.triggers:8d} "
            f"{outcome.cold_fallbacks:6d} {100 * outcome.cold_rate:6.2f}% "
            f"{outcome.balance_cv:10.3f} {outcome.mean_init_us:9.2f}"
        )
    return "\n".join(lines)
