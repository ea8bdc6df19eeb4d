"""Failure domains: injector determinism, crash scheduling, fault hooks.

Includes the non-vacuity guard: every kind in ``FAILURE_KINDS`` must
demonstrably fire under a configuration that selects it — a failure
model that never fails validates nothing.
"""

import pytest

from repro.faas import FunctionSpec, StartType
from repro.faas.cluster import FaaSCluster
from repro.hypervisor.pause_resume import (
    RESUME_FAULT_HUNG,
    RESUME_FAULT_SLOW,
    RESUME_FAULT_TRANSIENT,
    HungResumeError,
    ResumeFault,
    TransientResumeError,
)
from repro.hypervisor.sandbox import SandboxState
from repro.resilience import failures
from repro.resilience.failures import (
    FAILURE_KINDS,
    FailureConfig,
    FailureInjector,
)
from repro.sim.units import seconds
from repro.workloads import FirewallWorkload


def make_cluster(hosts=2, seed=3):
    cluster = FaaSCluster(hosts=hosts, seed=seed)
    cluster.register(FunctionSpec("fw", FirewallWorkload()))
    cluster.provision_warm("fw", per_host=2)
    return cluster


def isolating_config(monkeypatch, kind, failure_rate=0.5):
    """A config under which only *kind* can fire (non-vacuity per kind):
    the fault-mix constants are patched where the injector reads them."""
    if kind == "node_crash":
        kind = RESUME_FAULT_TRANSIENT
    for name, weighted in (
        ("TRANSIENT_WEIGHT", RESUME_FAULT_TRANSIENT),
        ("SLOW_WEIGHT", RESUME_FAULT_SLOW),
        ("HUNG_WEIGHT", RESUME_FAULT_HUNG),
    ):
        monkeypatch.setattr(failures, name, 1.0 if kind == weighted else 0.0)
    # Every host faults (kinds must fire fast), at 0.5 * 1.8 = 0.9, the
    # probability cap.
    monkeypatch.setattr(failures, "FLAKY_FRACTION", 1.0)
    monkeypatch.setattr(failures, "FLAKY_BIAS", 1.8)
    return FailureConfig(failure_rate=failure_rate, crash_mtbf_base_s=0.05)


class TestConfig:
    def test_rate_range_enforced(self):
        with pytest.raises(ValueError):
            FailureConfig(failure_rate=1.0)
        with pytest.raises(ValueError):
            FailureConfig(failure_rate=-0.1)

    def test_probability_scales_with_flakiness(self):
        config = FailureConfig(failure_rate=0.1)
        assert config.resume_fault_probability(True) == pytest.approx(0.6)
        assert config.resume_fault_probability(False) == pytest.approx(0.02)

    def test_probability_capped(self):
        config = FailureConfig(failure_rate=0.5)
        assert config.resume_fault_probability(True) == 0.9

    def test_zero_rate_means_no_crashes(self):
        assert FailureConfig(failure_rate=0.0).mean_uptime_ns() is None


class TestFlakySelection:
    def test_at_least_one_flaky_host(self):
        # A quarter of one host rounds to none; the floor keeps one.
        cluster = make_cluster(hosts=1)
        injector = FailureInjector(
            cluster, FailureConfig(failure_rate=0.1), seed=0
        )
        assert len(injector.flaky_hosts) == 1

    def test_no_flaky_hosts_at_zero_rate(self):
        cluster = make_cluster()
        injector = FailureInjector(
            cluster, FailureConfig(failure_rate=0.0), seed=0
        )
        assert injector.flaky_hosts == ()

    def test_selection_deterministic(self):
        picks = []
        for _ in range(2):
            injector = FailureInjector(
                make_cluster(hosts=6),
                FailureConfig(failure_rate=0.2),
                seed=9,
            )
            picks.append(injector.flaky_hosts)
        assert picks[0] == picks[1]


class TestNonVacuity:
    """Each failure kind must fire under a config selecting it."""

    @pytest.mark.parametrize("kind", FAILURE_KINDS)
    def test_kind_fires(self, kind, monkeypatch):
        cluster = make_cluster(hosts=2, seed=11)
        injector = FailureInjector(
            cluster, isolating_config(monkeypatch, kind), seed=11
        )
        injector.schedule_crashes(until_ns=seconds(2))

        fired_errors = 0
        for step in range(60):
            when = seconds(0.03) * (step + 1)

            def attempt():
                nonlocal fired_errors
                for index in range(len(cluster.hosts)):
                    if not cluster.health[index].up:
                        continue
                    if cluster.hosts[index].pool.size("fw") == 0:
                        cluster.hosts[index].provision_warm("fw", count=1)
                    try:
                        cluster.trigger_on(index, "fw", StartType.HORSE)
                    except TransientResumeError:
                        fired_errors += 1
                    except HungResumeError as exc:
                        fired_errors += 1
                        cluster.hosts[index].destroy_sandbox(exc.sandbox)

            cluster.engine.schedule_at(when, attempt)
        cluster.engine.run(until=seconds(3))
        assert injector.fired[kind] > 0, f"{kind} never fired"

    def test_all_counters_present(self):
        injector = FailureInjector(
            make_cluster(), FailureConfig(failure_rate=0.1), seed=0
        )
        assert set(injector.fired) == set(FAILURE_KINDS)


class TestCrashRecovery:
    def make_injected(self, seed=5):
        cluster = make_cluster(hosts=3, seed=seed)
        injector = FailureInjector(
            cluster,
            FailureConfig(failure_rate=0.5, crash_mtbf_base_s=0.1),
            seed=seed,
        )
        return cluster, injector

    def test_crash_marks_down_and_drains_pool(self):
        cluster, injector = self.make_injected()
        planned = injector.schedule_crashes(until_ns=seconds(2))
        assert planned > 0
        cluster.engine.run(until=seconds(2))
        assert injector.fired["node_crash"] > 0
        assert cluster.stats.crashes == injector.fired["node_crash"]
        for index, health in enumerate(cluster.health):
            if health.crashes > health.recoveries:
                assert not health.up
                assert cluster.hosts[index].pool.size("fw") == 0

    def test_recovery_follows_crash(self):
        cluster, injector = self.make_injected()
        injector.schedule_crashes(until_ns=seconds(1))
        cluster.engine.run(until=seconds(5))  # drain past all recoveries
        for health in cluster.health:
            assert health.up
            assert health.recoveries == health.crashes

    def test_listeners_notified(self):
        cluster, injector = self.make_injected()
        crashes, recoveries = [], []
        injector.on_crash.append(lambda index, now: crashes.append(index))
        injector.on_recover.append(lambda index, now: recoveries.append(index))
        injector.schedule_crashes(until_ns=seconds(1))
        cluster.engine.run(until=seconds(5))
        assert len(crashes) == injector.fired["node_crash"]
        assert len(recoveries) == len(crashes)

    def test_crash_schedule_deterministic(self):
        schedules = []
        for _ in range(2):
            cluster, injector = self.make_injected(seed=21)
            injector.schedule_crashes(until_ns=seconds(2))
            schedules.append(
                sorted(
                    (event.time, event.label)
                    for event in cluster.engine.pending_events()
                    if event.label and event.label.startswith("node-")
                )
            )
        assert schedules[0] == schedules[1]


class TestResumeFaultHooks:
    def test_transient_leaves_sandbox_retryable(self):
        cluster = make_cluster(hosts=1)
        host = cluster.hosts[0]
        host.horse.fault_hook = lambda sandbox, now: ResumeFault(
            RESUME_FAULT_TRANSIENT
        )
        with pytest.raises(TransientResumeError) as excinfo:
            cluster.trigger_on(0, "fw", StartType.HORSE)
        sandbox = excinfo.value.sandbox
        assert sandbox.state is SandboxState.PAUSED
        # The sandbox is re-poolable and resumes fine once the fault clears.
        host.pool.release("fw", sandbox)
        host.horse.fault_hook = None
        invocation = cluster.trigger_on(0, "fw", StartType.HORSE)
        assert invocation.start_type is StartType.HORSE

    def test_hung_sticks_in_resuming(self):
        cluster = make_cluster(hosts=1)
        host = cluster.hosts[0]
        host.horse.fault_hook = lambda sandbox, now: ResumeFault(
            RESUME_FAULT_HUNG
        )
        with pytest.raises(HungResumeError) as excinfo:
            cluster.trigger_on(0, "fw", StartType.HORSE)
        assert excinfo.value.sandbox.state is SandboxState.RESUMING

    def test_slow_adds_stall_to_init(self):
        cluster = make_cluster(hosts=1)
        host = cluster.hosts[0]
        baseline = cluster.trigger_on(0, "fw", StartType.HORSE)
        host.horse.fault_hook = lambda sandbox, now: ResumeFault(
            RESUME_FAULT_SLOW, stall_ns=50_000
        )
        cluster.engine.run(until=seconds(1))  # let the first re-pool
        stalled = cluster.trigger_on(0, "fw", StartType.HORSE)
        assert (
            stalled.initialization_ns
            >= baseline.initialization_ns + 50_000
        )

    def test_in_flight_not_leaked_on_fault(self):
        cluster = make_cluster(hosts=1)
        host = cluster.hosts[0]
        host.horse.fault_hook = lambda sandbox, now: ResumeFault(
            RESUME_FAULT_TRANSIENT
        )
        with pytest.raises(TransientResumeError):
            cluster.trigger_on(0, "fw", StartType.HORSE)
        assert cluster.in_flight[0] == 0
