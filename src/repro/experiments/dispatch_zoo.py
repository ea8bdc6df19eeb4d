"""Dispatch-policy zoo: the scheduling cross-product study.

The pluggable dispatch API (DESIGN.md §15) ships four contenders —
``push-least-loaded``, ``pull``, ``mqfq-sticky``, ``deadline`` — and
this study answers the question the API exists for: *which policy wins
where?*  It runs the full cross-product

    policy × failure rate × workload mix

through the resilient gateway's breaker stack (the chaos study's
``breaker`` mode) over the identical seeded arrival and failure
schedule per (mix, failure-rate) cell, and reports per-class tail
latency: the p99 a uLL firewall request, a background batch request,
and (in the ``accel`` mix) a GPU-tagged inference request each see
under every policy.

Workload mixes:

* ``balanced``  — the chaos study's pair (uLL firewall + CPU-heavy
  background) at a 50/50 split;
* ``ull-heavy`` — same pair, 80 % of requests are uLL: the regime
  where hedging pressure and queue ordering dominate;
* ``accel``     — adds a GPU-tagged ``infer`` function that only half
  the hosts can run (``tag_accelerator``): the heterogeneous-fleet
  regime where dispatch choices interact with placement eligibility.

Every cell is audited exactly like a chaos run: gateway ledger and
policy invariants must come back clean, and any violation rides on the
cell for the caller.  Same seed ⇒ byte-identical rendered table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.experiments.chaos import ChaosConfig, _build_stack, _cell_outcome
from repro.faas.cluster import FaaSCluster
from repro.faas.function import FunctionSpec
from repro.metrics.stats import percentile
from repro.resilience import RequestState, ResilientGateway
from repro.resilience.policies import DISPATCH_POLICIES
from repro.sim.rng import RngRegistry
from repro.sim.units import milliseconds, seconds, to_microseconds
from repro.workloads import MlInferenceWorkload

#: Workload mixes the zoo compares, in rendering order.
DISPATCH_MIXES: Tuple[str, ...] = ("balanced", "ull-heavy", "accel")

#: uLL fraction per mix; the ``accel`` remainder splits again between
#: the GPU function and background work (see ``_schedule_arrivals``).
_ULL_FRACTION = {"balanced": 0.5, "ull-heavy": 0.8, "accel": 0.5}

#: Fraction of ``accel``-mix requests that hit the GPU-tagged function.
_ACCEL_FRACTION = 0.25

#: The contenders: every registered dispatch family, in sorted order.
ZOO_POLICIES: Tuple[str, ...] = tuple(DISPATCH_POLICIES.families())

#: Deadline handed to uLL submissions (the deadline policy's signal;
#: identical for every policy so schedules stay comparable).
ULL_DEADLINE_NS = milliseconds(200)


@dataclass(frozen=True)
class DispatchZooConfig:
    """Shape of one zoo sweep (identical schedule across policies)."""

    hosts: int = 4
    #: requests per cell (one cell = one policy × rate × mix run)
    requests: int = 600
    failure_rates: Tuple[float, ...] = (0.0, 0.2)
    mixes: Tuple[str, ...] = DISPATCH_MIXES
    mean_interarrival_ms: float = 5.0
    warm_per_host: int = 3
    drain_s: float = 60.0
    crash_mtbf_base_s: float = 0.25
    seed: int = 0

    def __post_init__(self) -> None:
        for mix in self.mixes:
            if mix not in DISPATCH_MIXES:
                raise ValueError(
                    f"unknown mix {mix!r}; choose from {DISPATCH_MIXES}"
                )
        # The shared shape checks are ChaosConfig's: build one cell
        # config per failure rate (and one more, so an empty sweep is
        # checked too).
        for failure_rate in (0.0, *self.failure_rates):
            self._cell_config(failure_rate, "push-least-loaded")

    def _cell_config(self, failure_rate: float, policy: str) -> ChaosConfig:
        """The chaos-stack shape of one (failure rate, policy) cell."""
        return ChaosConfig(
            hosts=self.hosts,
            failure_rate=failure_rate,
            requests=self.requests,
            mean_interarrival_ms=self.mean_interarrival_ms,
            warm_per_host=self.warm_per_host,
            drain_s=self.drain_s,
            crash_mtbf_base_s=self.crash_mtbf_base_s,
            seed=self.seed,
            dispatch=policy,
        )


@dataclass
class ClassStats:
    """Per request-class aggregate inside one zoo cell."""

    cls: str
    submitted: int = 0
    completed: int = 0
    failed: int = 0
    shed: int = 0
    p50_us: float = 0.0
    p99_us: float = 0.0


@dataclass
class ZooCell:
    """One (policy, failure-rate, mix) run, fully drained and audited."""

    policy: str
    failure_rate: float
    mix: str
    submitted: int = 0
    completed: int = 0
    shed: int = 0
    failed: int = 0
    crashes: int = 0
    classes: Dict[str, ClassStats] = field(default_factory=dict)
    violations: List[str] = field(default_factory=list)

    @property
    def resolved(self) -> int:
        return self.completed + self.shed + self.failed

    @property
    def ok(self) -> bool:
        return self.resolved == self.submitted and not self.violations


@dataclass
class DispatchZooResult:
    config: DispatchZooConfig
    cells: Dict[Tuple[str, float, str], ZooCell] = field(default_factory=dict)

    def cell(self, policy: str, failure_rate: float, mix: str) -> ZooCell:
        return self.cells[(policy, failure_rate, mix)]

    @property
    def ok(self) -> bool:
        return all(cell.ok for cell in self.cells.values())


def _schedule_arrivals(
    gateway: ResilientGateway, cluster: FaaSCluster, mix: str,
    config: DispatchZooConfig,
) -> int:
    """Seed the engine with the mix's arrival schedule; returns the last
    arrival instant.  The stream is forked off ``(seed, mix)`` only, so
    every policy and failure rate replays the identical workload."""
    arrivals = (
        RngRegistry(config.seed).fork(f"zoo-arrivals-{mix}").stream("times")
    )
    ull_fraction = _ULL_FRACTION[mix]
    mean_gap_ns = milliseconds(config.mean_interarrival_ms)
    t = 0
    last = 0
    for index in range(config.requests):
        t += max(1, round(arrivals.expovariate(1.0 / mean_gap_ns)))
        last = t
        draw = arrivals.random()
        accel_cut = _ACCEL_FRACTION if mix == "accel" else 0.0
        if draw < accel_cut:
            name, priority, deadline = "infer", 1, ULL_DEADLINE_NS
        elif draw < accel_cut + ull_fraction:
            name, priority, deadline = "firewall", 1, ULL_DEADLINE_NS
        else:
            name, priority, deadline = "background", 0, None
        cluster.engine.schedule_at(
            t,
            lambda name=name, priority=priority, deadline=deadline: (
                gateway.submit(name, priority=priority, deadline_ns=deadline)
            ),
            label=f"zoo-submit:{index}",
            transient=True,
        )
    return last


def run_zoo_cell(
    policy: str, failure_rate: float, mix: str, config: DispatchZooConfig
) -> ZooCell:
    """One policy under one failure rate and mix: seeded, drained,
    audited — on the chaos study's ``breaker`` stack."""
    cluster, gateway, injector = _build_stack(
        "breaker", config._cell_config(failure_rate, policy), config.seed
    )
    if mix == "accel":
        infer = MlInferenceWorkload()
        infer.name = "infer"
        cluster.register(
            FunctionSpec("infer", infer, memory_mb=512, accelerator="gpu")
        )
        # Half the fleet carries the accelerator — the heterogeneity the
        # eligibility filter (and sticky/pull placement) must respect.
        for index in range(config.hosts // 2):
            cluster.tag_accelerator(index, "gpu")
        cluster.provision_warm("infer", per_host=config.warm_per_host)

    last = _schedule_arrivals(gateway, cluster, mix, config)
    injector.schedule_crashes(until_ns=last)
    cluster.engine.run(until=last + seconds(config.drain_s))

    outcome = _cell_outcome("breaker", 0, gateway, injector)
    cell = ZooCell(
        policy=policy,
        failure_rate=failure_rate,
        mix=mix,
        submitted=outcome.submitted,
        completed=outcome.completed,
        shed=outcome.shed,
        failed=outcome.failed,
        crashes=outcome.crashes,
        violations=outcome.violations,
    )

    by_class: Dict[str, List[float]] = {}
    for request in gateway.requests:
        stats = cell.classes.get(request.function)
        if stats is None:
            stats = cell.classes[request.function] = ClassStats(
                cls=request.function
            )
            by_class[request.function] = []
        stats.submitted += 1
        if request.state is RequestState.COMPLETED:
            stats.completed += 1
            by_class[request.function].append(
                to_microseconds(request.latency_ns)
            )
        elif request.state is RequestState.FAILED:
            stats.failed += 1
        elif request.state is RequestState.SHED:
            stats.shed += 1
    for cls, latencies in by_class.items():
        latencies.sort()
        stats = cell.classes[cls]
        stats.p50_us = percentile(latencies, 50.0) if latencies else 0.0
        stats.p99_us = percentile(latencies, 99.0) if latencies else 0.0
    return cell


def run_dispatch_zoo(
    config: Optional[DispatchZooConfig] = None,
) -> DispatchZooResult:
    """The full cross-product: every policy over every (rate, mix)."""
    config = config or DispatchZooConfig()
    result = DispatchZooResult(config=config)
    for mix in config.mixes:
        for failure_rate in config.failure_rates:
            for policy in ZOO_POLICIES:
                result.cells[(policy, failure_rate, mix)] = run_zoo_cell(
                    policy, failure_rate, mix, config
                )
    return result


def render_dispatch_zoo(result: DispatchZooResult) -> str:
    """Fixed-width per-class comparison table (byte-stable per seed)."""
    config = result.config
    lines = [
        f"dispatch zoo: hosts={config.hosts} requests={config.requests} "
        f"seed={config.seed} policies={','.join(ZOO_POLICIES)}",
        "",
        f"{'mix':10s} {'frate':>5s} {'policy':18s} {'class':10s} "
        f"{'subm':>5s} {'done':>5s} {'shed':>5s} {'fail':>5s} "
        f"{'p50 us':>10s} {'p99 us':>10s}",
    ]
    for mix in config.mixes:
        for failure_rate in config.failure_rates:
            for policy in ZOO_POLICIES:
                cell = result.cell(policy, failure_rate, mix)
                for cls in sorted(cell.classes):
                    stats = cell.classes[cls]
                    lines.append(
                        f"{mix:10s} {failure_rate:5.2f} {policy:18s} "
                        f"{cls:10s} {stats.submitted:5d} {stats.completed:5d} "
                        f"{stats.shed:5d} {stats.failed:5d} "
                        f"{stats.p50_us:10.1f} {stats.p99_us:10.1f}"
                    )
                if not cell.ok:
                    lines.append(
                        f"{mix:10s} {failure_rate:5.2f} {policy:18s} "
                        f"UNSOUND — "
                        f"{cell.submitted - cell.resolved} unresolved, "
                        f"{len(cell.violations)} violations"
                    )
    return "\n".join(lines)


def dispatch_zoo_rows(result: DispatchZooResult) -> List[Dict[str, object]]:
    """Flat scalar rows: one per (policy, rate, mix, class)."""
    rows: List[Dict[str, object]] = []
    for (policy, failure_rate, mix), cell in sorted(result.cells.items()):
        for cls in sorted(cell.classes):
            stats = cell.classes[cls]
            rows.append(
                {
                    "policy": policy,
                    "failure_rate": failure_rate,
                    "mix": mix,
                    "cls": cls,
                    "submitted": stats.submitted,
                    "completed": stats.completed,
                    "shed": stats.shed,
                    "failed": stats.failed,
                    "p50_us": stats.p50_us,
                    "p99_us": stats.p99_us,
                    "ok": cell.ok,
                }
            )
    return rows
