"""Chaos study: latency vs failure rate under injected infrastructure churn.

Drives one Poisson-ish request mix (a uLL firewall function plus a
CPU-heavy background function) through the resilient gateway over a
small cluster while the :class:`~repro.resilience.FailureInjector`
crashes nodes and corrupts resumes, and compares *resilience modes*:

* ``breaker``      — full stack: per-node circuit breakers, retries
  with jittered backoff, hedged uLL requests, degradation ladder;
* ``retries-only`` — same stack minus the breakers.  Placement keeps
  routing to sick hosts, so every request pays to rediscover them —
  the breaker's p99 win comes exactly from skipping that;
* ``vanilla``      — no HORSE: functions declassified to non-uLL, pools
  warmed through the vanilla pause path, no hedging.  The
  HORSE-vs-vanilla comparison under churn.

Everything is a pure function of ``(config, seed)``: two same-seed runs
produce identical ``ChaosResult``\\ s (the CLI determinism check diffs
the rendered output byte-for-byte).

Every run is audited: the gateway's ledger/breaker invariants and the
end-of-run "no lost invocations" oracle must come back clean, and any
violation is carried on the outcome for the caller (CLI exits non-zero).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Dict, List, Optional, Sequence, Tuple

from repro.faas.cluster import FaaSCluster
from repro.faas.frontend import RoutedArrival, plan_arrivals
from repro.faas.function import FunctionSpec
from repro.metrics.stats import percentile
from repro.obs.context import current as current_obs, phase
from repro.resilience import (
    BreakerConfig,
    FailureConfig,
    FailureInjector,
    RequestState,
    ResilienceConfig,
    ResilientGateway,
    default_dispatch_policy,
    make_dispatch_policy,
)
from repro.sim.engine import Engine
from repro.sim.units import seconds, to_microseconds
from repro.workloads import FirewallWorkload, SysbenchCpuWorkload
from repro.workloads.base import WorkloadCategory

#: Resilience modes the study compares, in rendering order.
CHAOS_MODES: Tuple[str, ...] = ("breaker", "retries-only", "vanilla")

#: Experiment ids `repro chaos` accepts.
CHAOSABLE: Tuple[str, ...] = ("cluster",)

#: Fraction of requests hitting the uLL function.
ULL_FRACTION = 0.5


@dataclass(frozen=True)
class ChaosConfig:
    """Shape of one chaos run (identical across the compared modes).

    The one config shape of the chaos family: the sharded study and the
    recovery study extend it, so the shared fields and their checks live
    here only.
    """

    #: what needs two hosts, as the ``hosts`` check words it
    _HOSTS_RULE: ClassVar[str] = "chaos needs >= 2 hosts (hedging/steering)"

    hosts: int = 4
    failure_rate: float = 0.1
    requests: int = 1200
    #: mean request inter-arrival (exponential draws)
    mean_interarrival_ms: float = 5.0
    warm_per_host: int = 3
    #: engine drain horizon after the last submission
    drain_s: float = 60.0
    #: mean host up-time = this / failure_rate (0.25 s at the default
    #: rate 0.1 gives a 2.5 s MTBF — a few crashes inside the ~2 s
    #: arrival window)
    crash_mtbf_base_s: float = 0.25
    seed: int = 0
    #: dispatch-policy spec; resolved at config construction so the
    #: rendered header and trace reflect the actual policy, env var
    #: included (same render iff same policy)
    dispatch: str = field(default_factory=default_dispatch_policy)

    def __post_init__(self) -> None:
        if self.hosts < 2:
            raise ValueError(f"{self._HOSTS_RULE}, got {self.hosts}")
        self._require(
            ("failure_rate", 0.0 <= self.failure_rate < 1.0, "in [0, 1)"),
            ("requests", self.requests >= 1, ">= 1"),
            ("mean_interarrival_ms", self.mean_interarrival_ms > 0, "> 0"),
            ("warm_per_host", self.warm_per_host >= 1, ">= 1"),
            ("drain_s", self.drain_s > 0, "> 0"),
            ("crash_mtbf_base_s", self.crash_mtbf_base_s > 0, "> 0"),
        )
        make_dispatch_policy(self.dispatch)  # validate eagerly

    def _require(self, *rules: Tuple[str, bool, str]) -> None:
        """Raise a ``ValueError`` naming the first field whose rule
        fails; each rule is ``(field, holds, wording)``."""
        for name, holds, wording in rules:
            if not holds:
                raise ValueError(
                    f"{name} must be {wording}, got {getattr(self, name)}"
                )


@dataclass
class ModeOutcome:
    """One resilience mode's aggregate behaviour over a chaos run."""

    mode: str
    submitted: int = 0
    completed: int = 0
    shed: int = 0
    failed: int = 0
    retries: int = 0
    hedges: int = 0
    redundant_hedges: int = 0
    degradations: Dict[str, int] = field(default_factory=dict)
    breaker_opens: int = 0
    crashes: int = 0
    recoveries: int = 0
    fired: Dict[str, int] = field(default_factory=dict)
    p50_us: float = 0.0
    p95_us: float = 0.0
    p99_us: float = 0.0
    #: latency over the firewall (uLL-class) requests only — the numbers
    #: HORSE exists for, and where the breaker-vs-retries gap shows
    ull_p50_us: float = 0.0
    ull_p99_us: float = 0.0
    violations: List[str] = field(default_factory=list)

    @property
    def resolved(self) -> int:
        return self.completed + self.shed + self.failed

    @property
    def ok(self) -> bool:
        """Soundness: all requests terminal, all invariants held."""
        return self.resolved == self.submitted and not self.violations


@dataclass
class CellOutcome:
    """One (mode, failure-domain cell) sub-simulation's results.

    Everything here is picklable plain data: sharded cells cross the
    process boundary on the way back from the workers.  A single-engine
    run is the one-cell case (group 0, no windows, no records).
    """

    mode: str
    group: int
    submitted: int = 0
    completed: int = 0
    shed: int = 0
    failed: int = 0
    retries: int = 0
    hedges: int = 0
    redundant_hedges: int = 0
    degradations: Dict[str, int] = field(default_factory=dict)
    breaker_opens: int = 0
    crashes: int = 0
    recoveries: int = 0
    fired: Dict[str, int] = field(default_factory=dict)
    #: sorted per-cell completion latencies (µs); pooled for percentiles
    latencies_us: List[float] = field(default_factory=list)
    ull_latencies_us: List[float] = field(default_factory=list)
    violations: List[str] = field(default_factory=list)
    events_executed: int = 0
    windows: int = 0
    #: per-cell trace stream, sorted by (t, kind, id) — merge input
    records: List[dict] = field(default_factory=list)


@dataclass
class ChaosResult:
    config: ChaosConfig
    outcomes: Dict[str, ModeOutcome] = field(default_factory=dict)

    def outcome(self, mode: str) -> ModeOutcome:
        return self.outcomes[mode]

    @property
    def ok(self) -> bool:
        return all(outcome.ok for outcome in self.outcomes.values())

    def rows(self) -> List[Dict[str, object]]:
        """One row per resilience mode (the sharded study's too)."""
        from repro.experiments.rows import object_row

        return [
            object_row(outcome, extra=("p99_us", "ull_p50_us", "ull_p99_us"))
            for outcome in self.outcomes.values()
        ]


#: Breaker tuning for the study: trip fast (2 consecutive failures) and
#: back off for a whole second — on a flaky host faulting more than half
#: its resumes, a high open duty-cycle is what moves the p99.
_STUDY_BREAKER = BreakerConfig(failure_threshold=2, open_ns=seconds(1))


def _mode_resilience(mode: str, config: ChaosConfig) -> ResilienceConfig:
    if mode not in CHAOS_MODES:
        raise ValueError(f"unknown chaos mode {mode!r}; choose from {CHAOS_MODES}")
    return ResilienceConfig(
        breaker=None if mode == "retries-only" else _STUDY_BREAKER,
        # No uLL class in a vanilla deployment, hence no hedging either.
        hedge=mode != "vanilla",
        # Recoveries restock to the full provisioning level; a half-warmed
        # host would turn every breaker exclusion elsewhere into cold starts.
        rewarm_per_host=config.warm_per_host,
        dispatch=config.dispatch,
    )


def _build_workloads(mode: str):
    """The uLL firewall + background thumbnail pair for one mode.

    The ``vanilla`` mode runs the *same* bodies but declassifies the
    firewall out of the uLL category: same work, no HORSE fast path —
    the apples-to-apples churn comparison.
    """
    firewall = FirewallWorkload()
    firewall.name = "firewall"
    if mode == "vanilla":
        firewall.category = WorkloadCategory.BACKGROUND
    background = SysbenchCpuWorkload()
    background.name = "background"
    return firewall, background


def _build_cluster(
    mode: str, config: ChaosConfig, seed: int, engine: Optional[Engine] = None
) -> FaaSCluster:
    """One mode's cluster, seeded by *seed*, with the firewall/background
    pair registered and warmed ``warm_per_host`` deep on every host.

    *engine* lets several clusters share one clock (the recovery study
    runs one cluster per gateway shard on its cell's engine).
    """
    firewall, background = _build_workloads(mode)
    cluster = FaaSCluster(hosts=config.hosts, seed=seed, engine=engine)
    cluster.register(FunctionSpec("firewall", firewall, memory_mb=128))
    cluster.register(FunctionSpec("background", background, memory_mb=256))
    use_horse = None if mode != "vanilla" else False
    cluster.provision_warm(
        "firewall", per_host=config.warm_per_host, use_horse=use_horse
    )
    cluster.provision_warm("background", per_host=config.warm_per_host)
    return cluster


def _host_injector(
    cluster: FaaSCluster, config: ChaosConfig, seed: int, domain: int
) -> FailureInjector:
    """The host-failure injector for *cluster*, labelled *domain*.

    Faults concentrate on the flaky hosts (calm hosts are nearly
    clean): that asymmetry is what per-node breakers exploit, and what
    separates the breaker and retries-only columns at the uLL p99.
    """
    return FailureInjector(
        cluster,
        FailureConfig(
            failure_rate=config.failure_rate,
            crash_mtbf_base_s=config.crash_mtbf_base_s,
            calm_factor=0.05,
        ),
        seed=seed,
        domain=domain,
    )


def _build_stack(
    mode: str, config: ChaosConfig, seed: int, domain: int = 0
) -> Tuple[FaaSCluster, ResilientGateway, FailureInjector]:
    """One mode's resilient stack on a fresh engine, seeded by *seed*.

    The warmed cluster, the resilient gateway, and an attached failure
    injector labelled with failure domain *domain*.
    """
    cluster = _build_cluster(mode, config, seed)
    gateway = ResilientGateway(cluster, _mode_resilience(mode, config), seed=seed)
    injector = _host_injector(cluster, config, seed, domain)
    gateway.attach(injector)
    return cluster, gateway, injector


def _close_cell(engine: Engine, clusters: Sequence[FaaSCluster]) -> None:
    """End a cell whose outcome has been read.

    Closes its engine, which drops every pending callback, and freezes
    each host's metric export, which flushes its counts and lets go of
    the host.  Nothing then points into the cell from outside or back
    up inside it, so reference counting frees all of it when the
    cell's function returns, with no work left for the cyclic
    collector.  The registry's pending tallies are folded too (the
    collectors are left for the next read), so the keys the cell's
    completions wrote are not kept until the run ends.
    """
    engine.close()
    for cluster in clusters:
        for host in cluster.hosts:
            if host.virt.export is not None:
                host.virt.export.freeze()
    current_obs().metrics.fold_tallies()


def _cell_outcome(
    mode: str, group: int, gateway: ResilientGateway, injector: FailureInjector
) -> CellOutcome:
    """Read one drained stack's results off its gateway and cluster."""
    cluster = gateway.cluster
    completed = gateway.by_state(RequestState.COMPLETED)
    return CellOutcome(
        mode=mode,
        group=group,
        submitted=len(gateway.requests),
        completed=len(completed),
        shed=len(gateway.by_state(RequestState.SHED)),
        failed=len(gateway.by_state(RequestState.FAILED)),
        retries=sum(request.retries for request in gateway.requests),
        hedges=sum(request.hedges_used for request in gateway.requests),
        redundant_hedges=sum(
            request.redundant_hedges for request in gateway.requests
        ),
        degradations=dict(sorted(gateway.degradations.transitions.items())),
        breaker_opens=sum(
            breaker.open_count for breaker in gateway.breakers.values()
        ),
        crashes=cluster.stats.crashes,
        recoveries=cluster.stats.recoveries,
        fired=dict(injector.fired),
        latencies_us=sorted(
            to_microseconds(request.latency_ns) for request in completed
        ),
        ull_latencies_us=sorted(
            to_microseconds(request.latency_ns)
            for request in completed
            if request.function == "firewall"
        ),
        violations=gateway.invariant_violations()
        + gateway.unresolved_violations(),
        events_executed=cluster.engine.events_executed,
    )


def _aggregate_mode(mode: str, cells: Sequence[CellOutcome]) -> ModeOutcome:
    """Fold one mode's cells into its :class:`ModeOutcome`.

    Counters sum; latency percentiles are computed over the pooled
    per-cell latency lists, so they describe the whole cluster, not an
    average of averages.
    """
    degradations: Dict[str, int] = {}
    fired: Dict[str, int] = {}
    violations: List[str] = []
    for cell in cells:
        for key, value in cell.degradations.items():
            degradations[key] = degradations.get(key, 0) + value
        for key, value in cell.fired.items():
            fired[key] = fired.get(key, 0) + value
        violations.extend(cell.violations)
    latencies = sorted(
        value for cell in cells for value in cell.latencies_us
    )
    ull_latencies = sorted(
        value for cell in cells for value in cell.ull_latencies_us
    )
    return ModeOutcome(
        mode=mode,
        submitted=sum(cell.submitted for cell in cells),
        completed=sum(cell.completed for cell in cells),
        shed=sum(cell.shed for cell in cells),
        failed=sum(cell.failed for cell in cells),
        retries=sum(cell.retries for cell in cells),
        hedges=sum(cell.hedges for cell in cells),
        redundant_hedges=sum(cell.redundant_hedges for cell in cells),
        degradations=dict(sorted(degradations.items())),
        breaker_opens=sum(cell.breaker_opens for cell in cells),
        crashes=sum(cell.crashes for cell in cells),
        recoveries=sum(cell.recoveries for cell in cells),
        fired=dict(sorted(fired.items())),
        p50_us=percentile(latencies, 50.0) if latencies else 0.0,
        p95_us=percentile(latencies, 95.0) if latencies else 0.0,
        p99_us=percentile(latencies, 99.0) if latencies else 0.0,
        ull_p50_us=percentile(ull_latencies, 50.0) if ull_latencies else 0.0,
        ull_p99_us=percentile(ull_latencies, 99.0) if ull_latencies else 0.0,
        violations=violations,
    )


def _arrival_plan(
    config: ChaosConfig, groups: int
) -> Dict[int, List[RoutedArrival]]:
    """The family's one arrival plan for *config*, routed over *groups*
    cells (:func:`repro.faas.frontend.plan_arrivals`)."""
    return plan_arrivals(
        config.requests,
        groups,
        config.mean_interarrival_ms,
        ULL_FRACTION,
        config.seed,
    )


def run_chaos_mode(mode: str, config: ChaosConfig) -> ModeOutcome:
    """One mode, one seeded run, fully drained and audited."""
    cluster, gateway, injector = _build_stack(mode, config, config.seed)

    # The arrival plan comes from its own streams, so every mode sees
    # the identical workload and the identical failure schedule.
    arrivals = _arrival_plan(config, groups=1)[0]
    for arrival in arrivals:
        cluster.engine.schedule_at(
            arrival.submit_ns,
            lambda a=arrival: gateway.submit(a.function, priority=a.priority),
            label=f"chaos-submit:{arrival.index}",
            transient=True,
        )
    last = arrivals[-1].submit_ns
    injector.schedule_crashes(until_ns=last)
    cluster.engine.run(until=last + seconds(config.drain_s))
    outcome = _aggregate_mode(mode, [_cell_outcome(mode, 0, gateway, injector)])
    _close_cell(cluster.engine, [cluster])
    return outcome


def run_chaos(
    config: Optional[ChaosConfig] = None,
    modes: Tuple[str, ...] = CHAOS_MODES,
) -> ChaosResult:
    """The full study: every mode over the identical seeded schedule,
    each one a phase of the run context's profiler, if it holds one."""
    config = config or ChaosConfig()
    result = ChaosResult(config=config)
    for mode in modes:
        phase(mode)
        result.outcomes[mode] = run_chaos_mode(mode, config)
    return result


def _dispatch_suffix(dispatch: str) -> str:
    """Header suffix naming the dispatch policy.

    It only appears off the default, so the headers — and with them
    every pre-policy golden — are byte-stable.
    """
    return f" dispatch={dispatch}" if dispatch != "push-least-loaded" else ""


def _mode_lines(outcomes: Dict[str, ModeOutcome]) -> List[str]:
    """The per-mode table and detail lines both chaos renderers print."""
    lines = [
        f"{'mode':14s} {'done':>5s} {'shed':>5s} {'fail':>5s} {'retry':>6s} "
        f"{'hedge':>6s} {'degr':>5s} {'opens':>6s} "
        f"{'p99 us':>10s} {'uLL p50 us':>11s} {'uLL p99 us':>11s}",
    ]
    for outcome in outcomes.values():
        lines.append(
            f"{outcome.mode:14s} {outcome.completed:5d} {outcome.shed:5d} "
            f"{outcome.failed:5d} {outcome.retries:6d} {outcome.hedges:6d} "
            f"{sum(outcome.degradations.values()):5d} {outcome.breaker_opens:6d} "
            f"{outcome.p99_us:10.1f} {outcome.ull_p50_us:11.2f} "
            f"{outcome.ull_p99_us:11.2f}"
        )
    lines.append("")
    for outcome in outcomes.values():
        degraded = (
            ", ".join(f"{k}:{v}" for k, v in outcome.degradations.items())
            or "none"
        )
        fired = ", ".join(f"{k}:{v}" for k, v in sorted(outcome.fired.items()))
        lines.append(
            f"{outcome.mode}: crashes={outcome.crashes} "
            f"recoveries={outcome.recoveries} degradations=[{degraded}] "
            f"faults=[{fired}]"
        )
        if not outcome.ok:
            lines.append(
                f"{outcome.mode}: UNSOUND — "
                f"{outcome.submitted - outcome.resolved} unresolved, "
                f"{len(outcome.violations)} violations"
            )
            lines.extend(f"  {message}" for message in outcome.violations[:10])
    return lines


def render_chaos(result: ChaosResult) -> str:
    """Fixed-width summary table (byte-stable for the determinism check)."""
    config = result.config
    lines = [
        f"chaos: hosts={config.hosts} requests={config.requests} "
        f"failure_rate={config.failure_rate:g} seed={config.seed}"
        f"{_dispatch_suffix(config.dispatch)}",
        "",
    ]
    return "\n".join(lines + _mode_lines(result.outcomes))
