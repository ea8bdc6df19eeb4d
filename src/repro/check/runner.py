"""Checked experiment runs: ``python -m repro check <experiment>``.

Any registry spec is checked by running it under a run context holding
an :class:`~repro.check.invariants.InvariantRegistry`
(:func:`repro.obs.context.activate`): every engine, host and sandbox
pool it builds registers its checkers, and :func:`report_run` reports.

Figure 3 also needs what only it has, in :func:`check_figure3`: its
pause/resume cycles under the differential oracles and an optional
fault plan, each on a fresh platform plus a *resident* uLL sandbox
resumed onto the reserved queue first, so the checked resume always
merges into a non-empty queue (the case where P2SM's precomputed
anchors can actually be wrong); then a warm-pool phase built under the
run context and checked on every event.

The result is a :class:`CheckReport`: every violation with its span
context, every fault actually injected, and any planned fault that
never found an eligible cycle (a fault that cannot fire proves
nothing — the report makes that state visible rather than vacuous).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.check.faults import FaultInjector, FaultPlan, InjectedFault
from repro.check.harness import CheckHarness
from repro.check.invariants import (
    InvariantRegistry,
    Trigger,
    Violation,
    default_registry,
    p2sm_freshness_checker,
)
from repro.check.oracles import DEFAULT_MAX_ULPS
from repro.core.hot_resume import HorseConfig, HorsePauseResume
from repro.experiments.figure3 import SETUPS
from repro.experiments.runner import fresh_platform
from repro.hypervisor.sandbox import Sandbox
from repro.obs.context import Observability, activate, current as current_obs

#: vCPUs of the resident sandbox pre-resumed onto the reserved queue.
RESIDENT_VCPUS = 2


@dataclass
class CheckReport:
    """Outcome of one checked run."""

    experiment: str
    platform: str
    cycles: int = 0
    events_checked: int = 0
    violations: List[Violation] = field(default_factory=list)
    injected: List[InjectedFault] = field(default_factory=list)
    #: Planned fault kinds that never found an eligible cycle.
    unfired: List[str] = field(default_factory=list)
    #: engines, hosts and sandbox pools a registry run checked (None
    #: for the Figure-3 cycles, which count cycles instead)
    built: Optional[Tuple[int, int, int]] = None

    @property
    def ok(self) -> bool:
        return not self.violations and not self.unfired

    def render(self) -> str:
        built = self.built
        scope = (
            f"{self.cycles} pause/resume cycles" if built is None
            else "{} engine(s), {} host(s), {} pool(s)".format(*built)
        )
        clean = (
            "all invariants held; all oracles agreed" if built is None
            else "all invariants held" if any(built)
            else "nothing to check: the run built no engine, host or pool"
        )
        lines = [
            f"repro check {self.experiment} ({self.platform}): {scope}, "
            f"{self.events_checked} engine events checked, "
            f"{len(self.violations)} violation(s)"
        ]
        if self.injected:
            lines.append("injected faults:")
            for fault in self.injected:
                lines.append(
                    f"  * {fault.kind} @ eligible cycle {fault.cycle} "
                    f"on {fault.sandbox_id}: {fault.detail}"
                )
        if self.unfired:
            lines.append(
                "planned faults that never found an eligible cycle: "
                + ", ".join(self.unfired)
            )
        if self.violations:
            lines.append("violations:")
            for violation in self.violations:
                lines.append(f"  ! {violation.render()}")
        else:
            lines.append(clean)
        return "\n".join(lines)


def report_run(
    experiment: str, platform: str, registry: InvariantRegistry
) -> CheckReport:
    """Sweep every checker of a run's *registry* once more, then report
    what it checked and found."""
    registry.run_boundary(0, "end of run")
    return CheckReport(
        experiment=experiment,
        platform=platform,
        events_checked=registry.events_seen,
        violations=list(registry.violations),
        built=(registry.engines, registry.hosts, registry.pools),
    )


def _checked_cycle(
    platform: str,
    config: Optional[HorseConfig],
    vcpus: int,
    memory_mb: int,
    context: str,
    injector: Optional[FaultInjector],
    max_ulps: int,
    obs: Observability,
) -> InvariantRegistry:
    """One Figure-3 cycle (fresh platform) under the full battery."""
    virt = fresh_platform(platform)
    resident = Sandbox(
        vcpus=RESIDENT_VCPUS, memory_mb=memory_mb, is_ull=config is not None
    )
    target = Sandbox(vcpus=vcpus, memory_mb=memory_mb, is_ull=config is not None)
    virt.vanilla.place_initial(resident, 0)
    virt.vanilla.place_initial(target, 0)

    if config is None:
        path = virt.vanilla
        registry = default_registry(
            host=virt.host, sandboxes=[resident, target], obs=obs
        )
    else:
        path = HorsePauseResume(
            virt.host, virt.policy, virt.costs, config=config, obs=obs
        )
        # Seed the reserved queue: the resident's vCPUs land on it, so
        # the checked resume merges into a non-trivial queue.
        path.pause(resident, 0)
        path.resume(resident, 0)
        registry = default_registry(
            host=virt.host,
            sandboxes=[resident, target],
            ull_manager=path.ull,
            obs=obs,
        )

    harness = CheckHarness(registry, injector=injector, max_ulps=max_ulps)
    harness.resident = resident
    harness.checked_pause(path, target, 0, context=f"{context}:pause")
    harness.checked_resume(path, target, 0, context=f"{context}:resume")
    return registry


def _checked_pool_phase(
    platform: str, seed: int, obs: Observability
) -> InvariantRegistry:
    """Warm-pool + engine phase: per-event invariant checking.

    The platform is built under a run context holding the phase's
    registry, so its engine, host and pool register their checkers;
    provisions HORSE-paused sandboxes, triggers a uLL invocation, and
    runs the event loop with every checker firing on every event.
    """
    from repro.faas import FaaSPlatform, FunctionSpec, StartType
    from repro.faas.keepalive import FixedWindow
    from repro.sim.units import seconds
    from repro.workloads import FirewallWorkload

    registry = InvariantRegistry(obs=obs)
    # A short keep-alive so eviction events actually fire inside the
    # checked window (eviction is where pool/timer accounting can rot).
    with activate(obs, invariants=registry):
        faas = FaaSPlatform.build(
            platform, seed=seed, policy=FixedWindow(seconds(1))
        )
    faas.register(FunctionSpec("firewall", FirewallWorkload()))
    registry.register(
        "invariant.p2sm_freshness",
        p2sm_freshness_checker(faas.ull_manager),
        trigger=Trigger.EVERY_N_EVENTS,
        every_n=2,
    )

    faas.provision_warm("firewall", count=2, use_horse=True)
    faas.trigger("firewall", StartType.HORSE, run_logic=True)
    faas.trigger("firewall", StartType.WARM, run_logic=True)
    faas.trigger("firewall", StartType.COLD, run_logic=True)
    faas.engine.run(until=faas.engine.now + seconds(3))
    registry.run_boundary(faas.engine.now, "faas:final")
    return registry


def check_figure3(
    vcpu_counts: Optional[Sequence[int]] = None,
    repetitions: int = 3,
    platform: str = "firecracker",
    memory_mb: int = 512,
    setups: Optional[Dict[str, Optional[HorseConfig]]] = None,
    fault_plan: Optional[FaultPlan] = None,
    max_ulps: int = DEFAULT_MAX_ULPS,
    seed: int = 0,
    fast: bool = False,
) -> CheckReport:
    """Re-run the Figure-3 cycles checked under the run context's
    bundle; see the module docstring."""
    if max_ulps < 0:
        raise ValueError(f"max_ulps must be >= 0, got {max_ulps}")
    if vcpu_counts is None:
        vcpu_counts = (1, 8, 36) if fast else (1, 2, 4, 8, 16, 24, 36)
    if fast:
        repetitions = min(repetitions, 2)
    active_setups = setups if setups is not None else SETUPS
    injector = (
        FaultInjector(fault_plan)
        if fault_plan is not None and fault_plan.specs
        else None
    )
    obs = current_obs()
    report = CheckReport(experiment="figure3", platform=platform)
    for setup_name, config in active_setups.items():
        for vcpus in vcpu_counts:
            for rep in range(repetitions):
                context = f"{setup_name}/v{vcpus}/r{rep}"
                span = obs.tracer.open_span(
                    "check.cycle", 0, category="check",
                    setup=setup_name, vcpus=vcpus, rep=rep,
                )
                registry = None
                try:
                    registry = _checked_cycle(
                        platform, config, vcpus, memory_mb, context,
                        injector, max_ulps, obs,
                    )
                finally:
                    span.close(
                        0,
                        violations=(
                            len(registry.violations) if registry else 0
                        ),
                    )
                report.cycles += 1
                report.violations.extend(registry.violations)

    pool_span = obs.tracer.open_span("check.pool_phase", 0, category="check")
    try:
        pool_registry = _checked_pool_phase(platform, seed, obs)
    finally:
        pool_span.close(0)
    report.violations.extend(pool_registry.violations)
    report.events_checked = pool_registry.events_seen

    if injector is not None:
        report.injected = list(injector.injected)
        fired_kinds = {fault.kind for fault in injector.injected}
        report.unfired = [
            spec.kind
            for spec in injector.plan.specs
            if spec.kind not in fired_kinds
        ]
    return report

