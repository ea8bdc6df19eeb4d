"""ResilientGateway end-to-end: retries, hedging, crashes, shedding.

The scenarios here drive the whole stack — gateway over cluster over
hypervisor fault hooks — through the sim engine, and always finish by
auditing the request ledger (``invariant_violations`` /
``unresolved_violations``): no request may be lost, double-counted, or
resolved two ways.
"""

import gc

import pytest

from repro.faas import FunctionSpec
from repro.faas.cluster import FaaSCluster
from repro.hypervisor.pause_resume import (
    RESUME_FAULT_HUNG,
    RESUME_FAULT_TRANSIENT,
    ResumeFault,
)
from repro.resilience import (
    AdmissionConfig,
    BreakerConfig,
    BreakerState,
    FailureConfig,
    FailureInjector,
    RequestState,
    ResilienceConfig,
    ResilientGateway,
    breaker_checker,
    request_ledger_checker,
)
from repro.obs import NULL_TRACER, MetricRegistry, Observability, activate
from repro.resilience import gateway as gateway_module
from repro.resilience.retry import (
    HANG_TIMEOUT_NS,
    HEDGE_DELAY_NS,
    MAX_ATTEMPTS,
)
from repro.sim.units import microseconds, milliseconds, seconds
from repro.workloads import FirewallWorkload


def make_stack(hosts=2, seed=4, config=None, warm=2):
    cluster = FaaSCluster(hosts=hosts, seed=seed)
    cluster.register(FunctionSpec("fw", FirewallWorkload()))
    cluster.provision_warm("fw", per_host=warm)
    gateway = ResilientGateway(
        cluster, config or ResilienceConfig(), seed=seed
    )
    return cluster, gateway


def transient_fault(sandbox, now):
    return ResumeFault(RESUME_FAULT_TRANSIENT)


def fault_all_resumes(host, hook):
    """Install *hook* on both resume paths (HORSE hot resume and the
    vanilla warm resume the ladder degrades to)."""
    host.horse.fault_hook = hook
    host.virt.vanilla.fault_hook = hook


def hung_fault(sandbox, now):
    return ResumeFault(RESUME_FAULT_HUNG)


def fail_first(count, kind=RESUME_FAULT_TRANSIENT):
    """A hook that faults the first *count* resumes, then heals."""
    remaining = [count]

    def hook(sandbox, now):
        if remaining[0] > 0:
            remaining[0] -= 1
            return ResumeFault(kind)
        return None

    return hook


def audit(gateway):
    assert gateway.invariant_violations() == []
    assert gateway.unresolved_violations() == []


class TestHappyPath:
    def test_submit_completes(self):
        cluster, gateway = make_stack()
        request = gateway.submit("fw", priority=1)
        cluster.engine.run(until=seconds(1))
        assert request.state is RequestState.COMPLETED
        assert request.resolution == "attempt-0"
        assert request.retries == 0
        assert request.hedges_used == 0
        assert request.latency_ns is not None and request.latency_ns > 0
        audit(gateway)

    def test_fast_completion_never_hedges(self):
        # The primary finishes in ~20 us, far under the 1 ms hedge delay.
        cluster, gateway = make_stack()
        request = gateway.submit("fw")
        cluster.engine.run(until=seconds(1))
        assert len(request.attempts) == 1
        assert request.redundant_hedges == 0


class TestAdmission:
    def shed_config(self, capacity=1, reserved=0):
        return ResilienceConfig(
            admission=AdmissionConfig(
                capacity=capacity, reserved_slots=reserved,
            )
        )

    def test_overload_sheds_without_launching(self):
        cluster, gateway = make_stack(config=self.shed_config(capacity=1))
        first = gateway.submit("fw")
        second = gateway.submit("fw")  # same instant: first still active
        assert first.state is RequestState.IN_FLIGHT
        assert second.state is RequestState.SHED
        assert second.resolution == "admission-overload"
        assert second.attempts == []
        cluster.engine.run(until=seconds(1))
        audit(gateway)

    def test_reserved_headroom_protects_high_priority(self):
        cluster, gateway = make_stack(
            config=self.shed_config(capacity=2, reserved=1)
        )
        gateway.submit("fw", priority=0)
        low = gateway.submit("fw", priority=0)   # over the 1-slot watermark
        high = gateway.submit("fw", priority=1)  # may use the reserve
        assert low.state is RequestState.SHED
        assert high.state is RequestState.IN_FLIGHT
        cluster.engine.run(until=seconds(1))
        assert high.state is RequestState.COMPLETED

    def test_capacity_frees_on_completion(self):
        cluster, gateway = make_stack(config=self.shed_config(capacity=1))
        gateway.submit("fw")
        cluster.engine.run(until=seconds(1))
        late = gateway.submit("fw")
        assert late.state is RequestState.IN_FLIGHT


class TestRetries:
    def test_transient_fault_retried_to_success(self):
        cluster, gateway = make_stack()
        for host in cluster.hosts:
            host.horse.fault_hook = fail_first(1)
        request = gateway.submit("fw")
        cluster.engine.run(until=seconds(1))
        assert request.state is RequestState.COMPLETED
        assert request.retries >= 1
        assert request.attempts[0].status == "transient"
        audit(gateway)

    def test_transient_fault_repools_sandbox(self):
        cluster, gateway = make_stack(hosts=1, warm=2)
        cluster.hosts[0].horse.fault_hook = fail_first(1)
        gateway.submit("fw")
        cluster.engine.run(until=seconds(1))
        # One sandbox served the retry and re-pooled; the faulted one
        # was handed straight back.  Nothing leaked.
        assert cluster.hosts[0].pool.size("fw") == 2

    def test_budget_exhaustion_fails_explicitly(self, monkeypatch):
        # Budget of 2 keeps every attempt on the resume path (attempt 3
        # would ride the ladder down to COLD, which cannot fault).
        monkeypatch.setattr(gateway_module, "MAX_ATTEMPTS", 2)
        cluster, gateway = make_stack()
        for host in cluster.hosts:
            fault_all_resumes(host, transient_fault)  # never heals
        request = gateway.submit("fw")
        cluster.engine.run(until=seconds(1))
        assert request.state is RequestState.FAILED
        assert request.resolution == "retry-budget"
        assert request.primary_count == 2
        audit(gateway)

    def test_ladder_bottoms_out_at_cold(self):
        # With the full budget, persistent resume faults walk the
        # request down the ladder until a cold start saves it.
        cluster, gateway = make_stack()
        for host in cluster.hosts:
            fault_all_resumes(host, transient_fault)
        request = gateway.submit("fw")
        cluster.engine.run(until=seconds(5))  # cold starts take ~1.5 s
        assert request.state is RequestState.COMPLETED
        assert gateway.degradations.total() >= 2
        audit(gateway)

    def test_deadline_gates_new_attempts(self):
        cluster, gateway = make_stack()
        for host in cluster.hosts:
            fault_all_resumes(host, transient_fault)
        # The first backoff (at least half the 50 us base) outlasts the
        # deadline, so the retry finds it passed.
        request = gateway.submit("fw", deadline_ns=microseconds(20))
        cluster.engine.run(until=seconds(1))
        assert request.state is RequestState.FAILED
        assert request.resolution == "deadline"
        # The deadline bounded retrying well under the attempt budget.
        assert request.primary_count < MAX_ATTEMPTS
        audit(gateway)


class TestHedging:
    def test_hedge_beats_hung_primary(self):
        cluster, gateway = make_stack(hosts=2)
        cluster.hosts[0].horse.fault_hook = hung_fault  # primary target
        request = gateway.submit("fw")
        cluster.engine.run(until=seconds(1))
        assert request.state is RequestState.COMPLETED
        assert request.hedges_used == 1
        assert request.attempts[0].status == "hung"
        hedge = request.attempts[1]
        assert hedge.hedge and hedge.host == 1
        # The hedge capped the hang at roughly the hedge delay, far
        # below the 10 ms hang-detection timeout.
        assert request.latency_ns < HANG_TIMEOUT_NS
        assert request.latency_ns >= HEDGE_DELAY_NS
        audit(gateway)

    def test_hung_sandbox_destroyed_at_timeout(self):
        cluster, gateway = make_stack(hosts=2, warm=1)
        cluster.hosts[0].horse.fault_hook = hung_fault
        gateway.submit("fw")
        cluster.engine.run(until=seconds(1))
        # Host 0's only warm sandbox hung and was written off.
        assert cluster.hosts[0].pool.size("fw") == 0

    def test_single_host_cannot_hedge(self):
        cluster, gateway = make_stack(hosts=1)
        request = gateway.submit("fw")
        cluster.engine.run(until=seconds(1))
        assert request.hedges_used == 0
        assert request.state is RequestState.COMPLETED


class TestCrashHandling:
    def make_injected(self, hosts=2):
        cluster, gateway = make_stack(hosts=hosts)
        injector = FailureInjector(
            cluster, FailureConfig(failure_rate=0.0), seed=0
        )
        gateway.attach(injector)
        return cluster, gateway, injector

    def test_crash_cancels_and_redispatches(self):
        cluster, gateway, injector = self.make_injected()
        request = gateway.submit("fw")  # lands on host 0 (tie -> lowest)
        primary = request.attempts[0]
        assert primary.host == 0
        # Strike mid-execution: firewall runs ~20 us, crash at 5 us.
        cluster.engine.schedule_at(5_000, lambda: injector._crash(0))
        cluster.engine.run(until=seconds(1))
        assert request.state is RequestState.COMPLETED
        assert primary.status == "crash"
        assert primary.invocation is not None and primary.invocation.cancelled
        assert request.attempts[-1].host == 1
        assert injector.fired["node_crash"] == 1
        audit(gateway)

    def test_recovery_rewarms_host(self):
        cluster, gateway, injector = self.make_injected()
        cluster.engine.schedule_at(5_000, lambda: injector._crash(0))
        cluster.engine.schedule_at(
            milliseconds(2), lambda: injector._recover(0)
        )
        gateway.submit("fw")
        cluster.engine.run(until=seconds(1))
        assert cluster.health[0].up
        assert (
            cluster.hosts[0].pool.size("fw")
            >= gateway.config.rewarm_per_host
        )

    def test_crash_with_no_inflight_is_harmless(self):
        cluster, gateway, injector = self.make_injected()
        cluster.engine.schedule_at(5_000, lambda: injector._crash(0))
        cluster.engine.run(until=seconds(1))
        request = gateway.submit("fw")
        cluster.engine.run(until=seconds(2))
        assert request.state is RequestState.COMPLETED
        audit(gateway)


class TestBreakerSteering:
    def test_open_breaker_steers_to_healthy_host(self):
        config = ResilienceConfig(
            breaker=BreakerConfig(failure_threshold=2, open_ns=seconds(1))
        )
        cluster, gateway = make_stack(hosts=2, config=config)
        fault_all_resumes(cluster.hosts[0], transient_fault)
        request = gateway.submit("fw")
        cluster.engine.run(until=seconds(5))  # ladder may reach cold (~1.5 s)
        assert request.state is RequestState.COMPLETED
        assert gateway.breakers[0].open_count >= 1
        winner = next(a for a in request.attempts if a.status == "ok")
        assert winner.host == 1
        audit(gateway)

    def test_breakers_gate_routing_without_a_hook_on_the_cluster(self):
        # The gateway passes its breakers to each routability query
        # instead of installing them on the cluster it owns: nothing on
        # the cluster points back at the gateway.
        cluster, gateway = make_stack(hosts=3)
        assert not any(
            ref is gateway for ref in gc.get_referents(vars(cluster))
        )
        gateway.breakers[1].force_open(0, reason="test")
        assert cluster.routable_or_empty(None, gateway._gate) == [0, 2]
        assert cluster.routable_or_empty(0, gateway._gate) == [2]
        assert cluster.routable_or_empty() == [0, 1, 2]
        request = gateway.submit("fw")
        assert [a.host for a in request.attempts] == [0]

    def test_gated_cluster_waits_then_probes_through(self):
        registry = MetricRegistry()
        with activate(Observability(NULL_TRACER, registry)):
            gateway, request = _gated_lone_host(seed=4)
        # The lone host's breaker opened; with nowhere to route, the
        # gateway waited, then the half-open probe let the retry through.
        assert request.state is RequestState.COMPLETED
        assert registry.snapshot()["resilience.no_host_wait"]["value"] >= 1
        assert gateway.breakers[0].state is BreakerState.CLOSED
        audit(gateway)

    def test_no_host_waits_of_gateways_sharing_a_registry_add_up(self):
        alone = []
        for seed in (4, 5):
            registry = MetricRegistry()
            with activate(Observability(NULL_TRACER, registry)):
                _gated_lone_host(seed)
            alone.append(registry.snapshot()["resilience.no_host_wait"]["value"])
        assert min(alone) >= 1
        shared = MetricRegistry()
        with activate(Observability(NULL_TRACER, shared)):
            for seed in (4, 5):
                _gated_lone_host(seed)
        assert shared.snapshot()["resilience.no_host_wait"]["value"] == sum(alone)


def _gated_lone_host(seed):
    """One request on a one-host cluster whose breaker opens on the
    first resume fault, so the retry must wait for the half-open probe.
    Returns ``(gateway, request)`` after one simulated second."""
    config = ResilienceConfig(
        breaker=BreakerConfig(failure_threshold=1, open_ns=milliseconds(1))
    )
    cluster, gateway = make_stack(hosts=1, seed=seed, config=config)
    cluster.hosts[0].horse.fault_hook = fail_first(1)
    request = gateway.submit("fw")
    cluster.engine.run(until=seconds(1))
    return gateway, request


class TestCheckers:
    def test_checkers_quiet_on_sound_ledger(self):
        cluster, gateway = make_stack()
        gateway.submit("fw")
        cluster.engine.run(until=seconds(1))
        assert breaker_checker(gateway)(cluster.engine.now) == []
        assert request_ledger_checker(gateway)(cluster.engine.now) == []

    def test_ledger_checker_catches_forged_shed(self):
        cluster, gateway = make_stack()
        request = gateway.submit("fw")
        cluster.engine.run(until=seconds(1))
        request.state = RequestState.SHED  # corrupt: completed AND shed
        problems = request_ledger_checker(gateway)(cluster.engine.now)
        assert any("shed" in message for message in problems)


class TestNoLostInvocations:
    """Acceptance: under seeded 10 % failure, every admitted request
    completes or is explicitly shed/failed — nothing is ever lost."""

    @pytest.mark.parametrize("seed", [0, 7])
    def test_everything_resolves(self, seed):
        cluster, gateway = make_stack(hosts=3, seed=seed, warm=2)
        injector = FailureInjector(
            cluster,
            FailureConfig(failure_rate=0.1, crash_mtbf_base_s=0.25),
            seed=seed,
        )
        gateway.attach(injector)
        total = 150
        for index in range(total):
            cluster.engine.schedule_at(
                microseconds(500) * (index + 1),
                lambda: gateway.submit("fw", priority=1),
            )
        last = microseconds(500) * total
        injector.schedule_crashes(until_ns=last)
        cluster.engine.run(until=last + seconds(15))
        assert len(gateway.requests) == total
        resolved = (
            len(gateway.by_state(RequestState.COMPLETED))
            + len(gateway.by_state(RequestState.SHED))
            + len(gateway.by_state(RequestState.FAILED))
        )
        assert resolved == total
        audit(gateway)
