"""Cluster recovery study: gateway crashes under the exactly-once oracle.

The sharded chaos study (:mod:`repro.experiments.sharded_chaos`) kills
*hosts*; this study kills the control plane itself.  Each failure-domain
cell runs a full :class:`~repro.controlplane.ControlPlane` — ``gateways``
shards behind the consistent-hash ring, each fronting its own
:class:`~repro.faas.cluster.FaaSCluster` on the cell's single engine —
and a :class:`~repro.resilience.GatewayFailureInjector` crashes whole
shards mid-run.  A crashed shard's functions spill to ring successors;
its admitted-but-unresolved requests are re-dispatched from the intent
log when the replacement comes up; when *every* shard is down, arrivals
park at the frontend and drain on the first recovery.

Correctness is not asserted from the chaos run alone: every cell is run
**twice** from the same seed — once with gateway failures, once with
the rate forced to zero — and, when host failures are off, the
origin→terminal-state maps of the two runs must be *identical*.  That
is the exactly-once differential oracle: a crash/recovery schedule may
move latency, but it may not lose, duplicate, or flip the outcome of a
single invocation.  On top of the oracle, every exit asserts the
log-derived invariants (no invocation lost, none duplicated, fencing
monotonicity, no cross-epoch completion).

The PR 7 determinism contract carries over verbatim: ``shards`` (worker
processes) is an execution knob; same seed ⇒ byte-identical merged
trace and rendered output for any worker count, gateway crashes and
all.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import ClassVar, Dict, List, Optional, Sequence, Tuple

from repro.controlplane import (
    ControlPlane,
    GatewayShard,
    exactly_once_checker,
    terminal_outcomes,
)
from repro.experiments.chaos import (
    _arrival_plan,
    _build_cluster,
    _close_cell,
    _dispatch_suffix,
    _host_injector,
)
from repro.experiments.sharded_chaos import (
    ShardedChaosConfig,
    _deliver,
    _record_host_churn,
)
from repro.faas.frontend import DISPATCH_LATENCY_NS, RoutedArrival
from repro.metrics.stats import percentile
from repro.resilience import (
    AdmissionConfig,
    FailureInjector,
    GatewayFailureConfig,
    GatewayFailureInjector,
    ResilienceConfig,
)
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry
from repro.sim.sharding import cell_seed, merge_records, run_cells
from repro.sim.units import seconds, to_microseconds

#: Tie-break rank for record kinds at equal timestamps within one cell.
_KIND_ORDER = {
    "gw-crash": 0,
    "gw-recover": 1,
    "crash": 2,
    "recover": 3,
    "request": 4,
}

#: Admission capacity per shard (high: the oracle needs no shedding).
ADMISSION_CAPACITY = 4096


@dataclass(frozen=True)
class ClusterRecoveryConfig(ShardedChaosConfig):
    """Shape of one recovery run (identical across worker counts).

    ``groups`` is the number of failure-domain cells and ``gateways``
    the number of control-plane shards per cell — both *model*
    parameters; ``hosts`` counts hosts per gateway shard's cluster.
    The worker count is an execution knob passed to
    :func:`run_recovery` separately.  The dispatch policy applies to
    every gateway shard, and the oracle re-runs inherit it, so the
    differential exactly-once comparison holds per policy.

    Tuned for the strict oracle: host failures off by default,
    admission capacity (:data:`ADMISSION_CAPACITY`) far above the
    offered load (shedding depends on instantaneous occupancy, which a
    recovery legitimately perturbs), and a request deadline of half the
    drain window so every request resolves before the engine stops.
    """

    _HOSTS_RULE: ClassVar[str] = "each shard needs >= 2 hosts (hedging)"

    groups: int = 4
    #: host-level failure rate (0 keeps the differential oracle strict)
    failure_rate: float = 0.0
    requests: int = 600
    #: control-plane shards per cell
    gateways: int = 3
    gateway_failure_rate: float = 0.2

    @property
    def deadline_s(self) -> float:
        """Per-request retry deadline: half the drain window."""
        return self.drain_s / 2

    def __post_init__(self) -> None:
        super().__post_init__()
        self._require(
            ("gateways", self.gateways >= 1, ">= 1"),
            (
                "gateway_failure_rate",
                0.0 <= self.gateway_failure_rate < 1.0,
                "in [0, 1)",
            ),
        )


@dataclass
class RecoveryCellOutcome:
    """One failure-domain cell's results (picklable plain data)."""

    group: int
    submitted: int = 0
    completed: int = 0
    shed: int = 0
    failed: int = 0
    gw_crashes: int = 0
    gw_recoveries: int = 0
    #: orphaned requests re-dispatched from intent logs, all shards
    redispatched: int = 0
    #: stale pre-crash completions dropped by fencing, all shards
    fenced: int = 0
    parked: int = 0
    drained: int = 0
    host_crashes: int = 0
    #: sorted completion latencies (µs); pooled for percentiles
    latencies_us: List[float] = field(default_factory=list)
    #: subset whose lifetime overlapped a gateway outage window
    recovery_latencies_us: List[float] = field(default_factory=list)
    #: origin -> terminal state (the oracle comparand)
    outcomes: Dict[int, str] = field(default_factory=dict)
    violations: List[str] = field(default_factory=list)
    events_executed: int = 0
    windows: int = 0
    records: List[dict] = field(default_factory=list)


def run_recovery_cell(
    config: ClusterRecoveryConfig,
    group: int,
    arrivals: Sequence[RoutedArrival],
) -> RecoveryCellOutcome:
    """One cell: N gateway shards, one engine, gateway chaos, audit."""
    seed = cell_seed(config.seed, "recovery-cell-", group)
    rngs = RngRegistry(seed)
    engine = Engine()
    resilience = ResilienceConfig(
        default_deadline_ns=seconds(config.deadline_s),
        admission=AdmissionConfig(
            capacity=ADMISSION_CAPACITY, reserved_slots=8
        ),
        dispatch=config.dispatch,
    )
    shards: List[GatewayShard] = []
    host_injectors: List[FailureInjector] = []
    for index in range(config.gateways):
        shard_seed = rngs.fork(f"gateway-{index}").root_seed
        cluster = _build_cluster("horse", config, shard_seed, engine=engine)
        shard = GatewayShard(index, cluster, resilience, seed=shard_seed)
        if config.failure_rate > 0.0:
            injector = _host_injector(cluster, config, shard_seed, group)
            shard.attach(injector)
            host_injectors.append(injector)
        shards.append(shard)

    plane = ControlPlane(engine, shards)
    gw_injector = GatewayFailureInjector(
        plane,
        GatewayFailureConfig(gateway_failure_rate=config.gateway_failure_rate),
        seed=seed,
        domain=group,
    )

    records: List[dict] = []
    #: closed outage intervals per shard: shard -> [(crash, recover)]
    outage_start: Dict[int, int] = {}
    outages: List[Tuple[int, int]] = []

    def on_gw_crash(index: int, now: int) -> None:
        records.append({"t": now, "shard": group, "kind": "gw-crash", "gw": index})
        outage_start[index] = now

    def on_gw_recover(index: int, now: int) -> None:
        records.append({"t": now, "shard": group, "kind": "gw-recover", "gw": index})
        outages.append((outage_start.pop(index), now))

    gw_injector.on_crash.append(on_gw_crash)
    gw_injector.on_recover.append(on_gw_recover)
    for gw, injector in enumerate(host_injectors):
        _record_host_churn(injector, records, shard=group, gw=gw)

    deadline_ns = seconds(config.deadline_s)
    windows = _deliver(
        engine,
        arrivals,
        lambda a: plane.submit(
            a.function, priority=a.priority, origin=a.index,
            deadline_ns=deadline_ns,
        ),
        [gw_injector, *host_injectors],
        config,
        label="recovery-submit",
    )

    # An outage still open when the run drains closes at engine.now.
    for index in sorted(outage_start):
        outages.append((outage_start[index], engine.now))

    outcomes = terminal_outcomes(plane)
    latencies: List[float] = []
    recovery_latencies: List[float] = []
    for shard in plane.shards:
        for record in shard.log.outcomes():
            if record.state != "completed" or record.latency_ns < 0:
                continue
            value = to_microseconds(record.latency_ns)
            latencies.append(value)
            started = record.t - record.latency_ns
            if any(started <= end and record.t >= start
                   for start, end in outages):
                recovery_latencies.append(value)
    latencies.sort()
    recovery_latencies.sort()

    violations = [
        f"g{group}: {message}"
        for message in exactly_once_checker(plane)(engine.now)
    ]
    for shard in plane.shards:
        violations.extend(
            f"g{group}/gw{shard.shard_id}: {message}"
            for message in shard.gateway.invariant_violations()
        )

    counted = list(outcomes.values())
    for arrival in arrivals:
        record = {
            "t": arrival.deliver_ns,
            "shard": group,
            "kind": "request",
            "req": arrival.index,
            "fn": arrival.function,
            "state": outcomes.get(arrival.index, "lost"),
        }
        records.append(record)
    records.sort(
        key=lambda r: (
            r["t"], _KIND_ORDER[r["kind"]], r.get("req", r.get("gw", 0))
        )
    )

    outcome = RecoveryCellOutcome(
        group=group,
        submitted=len(arrivals),
        completed=sum(1 for state in counted if state == "completed"),
        shed=sum(1 for state in counted if state == "shed"),
        failed=sum(1 for state in counted if state == "failed"),
        gw_crashes=gw_injector.crashes,
        gw_recoveries=gw_injector.recoveries,
        redispatched=sum(shard.redispatched for shard in shards),
        fenced=sum(shard.fenced_completions for shard in shards),
        parked=plane.parked_total,
        drained=plane.drained_total,
        host_crashes=sum(
            injector.fired["node_crash"] for injector in host_injectors
        ),
        latencies_us=latencies,
        recovery_latencies_us=recovery_latencies,
        outcomes=outcomes,
        violations=violations,
        events_executed=engine.events_executed,
        windows=windows,
        records=records,
    )
    _close_cell(engine, [shard.cluster for shard in shards])
    return outcome


@dataclass
class ClusterRecoveryResult:
    config: ClusterRecoveryConfig
    cells: Dict[int, RecoveryCellOutcome] = field(default_factory=dict)
    #: same cells re-run with gateway_failure_rate forced to zero
    oracle_cells: Dict[int, RecoveryCellOutcome] = field(default_factory=dict)
    #: oracle verdicts, one line per divergence (empty = exactly-once)
    oracle_mismatches: List[str] = field(default_factory=list)
    #: whether the strict outcome-identity oracle applied (host rate 0)
    oracle_strict: bool = True
    records: List[dict] = field(default_factory=list)
    events_executed: int = 0
    windows: int = 0

    @property
    def violations(self) -> List[str]:
        problems = [
            message
            for cell in self.cells.values()
            for message in cell.violations
        ]
        problems.extend(
            message
            for cell in self.oracle_cells.values()
            for message in cell.violations
        )
        problems.extend(self.oracle_mismatches)
        return problems

    @property
    def ok(self) -> bool:
        return not self.violations

    def rows(self) -> List[Dict[str, object]]:
        """One row per failure-domain cell."""
        rows: List[Dict[str, object]] = []
        for group in sorted(self.cells):
            cell = self.cells[group]
            rows.append(
                {
                    "group": cell.group,
                    "submitted": cell.submitted,
                    "completed": cell.completed,
                    "shed": cell.shed,
                    "failed": cell.failed,
                    "gw_crashes": cell.gw_crashes,
                    "gw_recoveries": cell.gw_recoveries,
                    "redispatched": cell.redispatched,
                    "fenced": cell.fenced,
                    "parked": cell.parked,
                    "p99_us": (
                        percentile(cell.latencies_us, 99.0)
                        if cell.latencies_us
                        else 0.0
                    ),
                    "recovery_p99_us": (
                        percentile(cell.recovery_latencies_us, 99.0)
                        if cell.recovery_latencies_us
                        else 0.0
                    ),
                    "violations": len(cell.violations),
                    "oracle_ok": not self.oracle_mismatches,
                }
            )
        return rows


def _compare_oracle(
    group: int,
    chaos: RecoveryCellOutcome,
    oracle: RecoveryCellOutcome,
) -> List[str]:
    """Differential exactly-once: identical origin→terminal-state maps."""
    mismatches: List[str] = []
    origins = sorted(set(chaos.outcomes) | set(oracle.outcomes))
    for origin in origins:
        left = chaos.outcomes.get(origin, "missing")
        right = oracle.outcomes.get(origin, "missing")
        if left != right:
            mismatches.append(
                f"g{group}: origin {origin} diverged from oracle: "
                f"chaos={left} zero-failure={right}"
            )
    return mismatches


def run_recovery(
    config: Optional[ClusterRecoveryConfig] = None,
    shards: int = 1,
    parallel: bool = True,
) -> ClusterRecoveryResult:
    """The full study: every cell plus its oracle twin, over workers.

    ``shards`` is the worker count — an execution knob.  Chaos cells
    and oracle cells are all independent pure functions of
    ``(config, seed, group)``, so they share one pool; results are
    byte-identical for any worker count.
    """
    config = config or ClusterRecoveryConfig()
    arrivals_by_group = _arrival_plan(config, config.groups)
    oracle_config = replace(config, gateway_failure_rate=0.0)
    tasks = [
        (cell_config, group, arrivals_by_group[group])
        for cell_config in (config, oracle_config)
        for group in range(config.groups)
    ]
    cells = run_cells(run_recovery_cell, tasks, shards, parallel)

    result = ClusterRecoveryResult(config=config)
    result.oracle_strict = config.failure_rate == 0.0
    result.cells = dict(enumerate(cells[:config.groups]))
    result.oracle_cells = dict(enumerate(cells[config.groups:]))
    if result.oracle_strict:
        for group in range(config.groups):
            result.oracle_mismatches.extend(
                _compare_oracle(
                    group, result.cells[group], result.oracle_cells[group]
                )
            )
    result.records = merge_records(
        [result.cells[group].records for group in range(config.groups)]
    )
    result.events_executed = sum(
        cell.events_executed for cell in result.cells.values()
    )
    result.windows = sum(cell.windows for cell in result.cells.values())
    return result


def render_recovery(result: ClusterRecoveryResult) -> str:
    """Fixed-width summary, byte-stable and worker-count-free."""
    config = result.config
    cells = [result.cells[group] for group in range(config.groups)]
    latencies = sorted(v for cell in cells for v in cell.latencies_us)
    recovery = sorted(
        v for cell in cells for v in cell.recovery_latencies_us
    )
    steady_count = len(latencies) - len(recovery)
    lines = [
        f"cluster-recovery: groups={config.groups} gateways={config.gateways} "
        f"hosts/gw={config.hosts} requests={config.requests} "
        f"gw_failure_rate={config.gateway_failure_rate:g} "
        f"host_failure_rate={config.failure_rate:g} seed={config.seed}"
        f"{_dispatch_suffix(config.dispatch)}",
        "",
        f"{'cell':>4s} {'subm':>5s} {'done':>5s} {'shed':>5s} {'fail':>5s} "
        f"{'gwcrash':>8s} {'redisp':>7s} {'fenced':>7s} {'parked':>7s} "
        f"{'p99 us':>10s}",
    ]
    for cell in cells:
        p99 = (
            percentile(cell.latencies_us, 99.0) if cell.latencies_us else 0.0
        )
        lines.append(
            f"g{cell.group:>3d} {cell.submitted:5d} {cell.completed:5d} "
            f"{cell.shed:5d} {cell.failed:5d} {cell.gw_crashes:8d} "
            f"{cell.redispatched:7d} {cell.fenced:7d} {cell.parked:7d} "
            f"{p99:10.1f}"
        )
    lines.append("")
    lines.append(
        f"latency: completions={len(latencies)} "
        f"p50_us={percentile(latencies, 50.0) if latencies else 0.0:.2f} "
        f"p99_us={percentile(latencies, 99.0) if latencies else 0.0:.2f}"
    )
    lines.append(
        f"recovery-window: completions={len(recovery)} "
        f"p99_us={percentile(recovery, 99.0) if recovery else 0.0:.2f} "
        f"(steady completions={steady_count})"
    )
    lines.append(
        f"control-plane: gw_crashes={sum(c.gw_crashes for c in cells)} "
        f"gw_recoveries={sum(c.gw_recoveries for c in cells)} "
        f"redispatched={sum(c.redispatched for c in cells)} "
        f"fenced={sum(c.fenced for c in cells)} "
        f"parked={sum(c.parked for c in cells)} "
        f"drained={sum(c.drained for c in cells)}"
    )
    if result.oracle_strict:
        verdict = (
            "identical"
            if not result.oracle_mismatches
            else f"{len(result.oracle_mismatches)} DIVERGENCES"
        )
        lines.append(f"oracle: zero-failure twin outcomes {verdict}")
    else:
        lines.append(
            "oracle: strict identity waived (host failures enabled); "
            "log invariants still enforced"
        )
    if not result.ok:
        lines.append(f"UNSOUND — {len(result.violations)} violations")
        lines.extend(f"  {message}" for message in result.violations[:10])
    lines.append("")
    lines.append(
        f"recovery: events={result.events_executed} windows={result.windows} "
        f"lookahead_ns={DISPATCH_LATENCY_NS} trace_records={len(result.records)}"
    )
    return "\n".join(lines)
