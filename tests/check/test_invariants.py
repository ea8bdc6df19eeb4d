"""Invariant registry: triggers, reporting, and the built-in checkers."""

import pytest

from repro.check import (
    InvariantRegistry,
    Trigger,
    default_registry,
    dvfs_sample_checker,
    event_heap_checker,
    lifecycle_checker,
    pool_checker,
    runqueue_checker,
)
from repro.core.hot_resume import HorsePauseResume
from repro.hypervisor.platform import firecracker_platform
from repro.hypervisor.sandbox import Sandbox
from repro.hypervisor.vcpu import VcpuState
from repro.obs import MetricRegistry, Observability, Tracer
from repro.sim.engine import Engine


def make_paused_pair():
    """A platform with one running and one HORSE-paused uLL sandbox."""
    virt = firecracker_platform()
    horse = HorsePauseResume(virt.host, virt.policy, virt.costs)
    running = Sandbox(vcpus=2, memory_mb=64, is_ull=True)
    paused = Sandbox(vcpus=2, memory_mb=64, is_ull=True)
    virt.vanilla.place_initial(running, 0)
    virt.vanilla.place_initial(paused, 0)
    horse.pause(paused, 0)
    return virt, horse, running, paused


class TestTriggers:
    def test_boundary_run_sweeps_every_trigger(self):
        registry = InvariantRegistry()
        runs = {"every": 0, "nth": 0, "boundary": 0}
        registry.register(
            "c.every", lambda now: runs.__setitem__("every", runs["every"] + 1) or [],
            trigger=Trigger.EVERY_EVENT,
        )
        registry.register(
            "c.nth", lambda now: runs.__setitem__("nth", runs["nth"] + 1) or [],
            trigger=Trigger.EVERY_N_EVENTS, every_n=3,
        )
        registry.register(
            "c.boundary",
            lambda now: runs.__setitem__("boundary", runs["boundary"] + 1) or [],
        )
        registry.run_boundary(0)
        assert runs == {"every": 1, "nth": 1, "boundary": 1}

    def test_engine_watcher_honors_every_n(self):
        engine = Engine()
        registry = InvariantRegistry()
        counts = {"every": 0, "nth": 0, "boundary": 0}
        registry.register(
            "c.every", lambda now: counts.__setitem__("every", counts["every"] + 1) or [],
            trigger=Trigger.EVERY_EVENT,
        )
        registry.register(
            "c.nth", lambda now: counts.__setitem__("nth", counts["nth"] + 1) or [],
            trigger=Trigger.EVERY_N_EVENTS, every_n=4,
        )
        registry.register(
            "c.boundary",
            lambda now: counts.__setitem__("boundary", counts["boundary"] + 1) or [],
        )
        registry.attach(engine)
        for t in range(1, 9):
            engine.schedule_at(t * 100, lambda: None)
        engine.run()
        assert counts["every"] == 8
        assert counts["nth"] == 2  # events 4 and 8
        assert counts["boundary"] == 0  # boundary-only: never per-event
        assert registry.events_seen == 8

    def test_bad_every_n_rejected(self):
        with pytest.raises(ValueError):
            InvariantRegistry().register("x", lambda now: [], every_n=0)


class TestReporting:
    def test_violation_carries_span_context_and_obs_instant(self):
        obs = Observability(Tracer(), MetricRegistry())
        registry = InvariantRegistry(obs=obs)
        span = obs.tracer.open_span("check.cycle", 0, setup="horse")
        registry.report("checker.x", ["queue exploded"], 42, context="ctx")
        span.close(0)
        assert len(registry.violations) == 1
        violation = registry.violations[0]
        assert violation.span_name == "check.cycle"
        assert violation.span_id == span.span.span_id
        assert "checker.x" in violation.render()
        assert "ctx" in violation.render()
        assert "span check.cycle#" in violation.render()
        instants = obs.tracer.find("check.violation")
        assert len(instants) == 1
        assert instants[0].attrs["message"] == "queue exploded"
        counter = obs.metrics.counter("check.violations")
        assert counter.value == 1

    def test_clean_checkers_report_nothing(self):
        registry = InvariantRegistry()
        registry.register("c.ok", lambda now: [])
        assert registry.run_boundary(0) == []
        assert registry.ok


class TestBuiltinCheckers:
    def test_runqueue_checker_flags_size_drift(self):
        virt, _, _, _ = make_paused_pair()
        check = runqueue_checker(virt.host)
        assert check(0) == []
        queue = virt.host.general_runqueues()[0]
        queue.entities._size += 1
        assert any("size counter" in m for m in check(0))

    def test_lifecycle_checker_flags_paused_sandbox_on_queue(self):
        virt, horse, running, paused = make_paused_pair()
        check = lifecycle_checker(virt.host, [running, paused])
        assert check(0) == []
        # Illegally splice one of the paused sandbox's vCPUs back in.
        queue = virt.host.general_runqueues()[0]
        queue.entities.insert_sorted(paused.vcpus[0])
        problems = check(0)
        assert any("paused but vCPU" in m for m in problems)

    def test_lifecycle_checker_flags_runnable_vcpu_off_queue(self):
        virt, horse, running, paused = make_paused_pair()
        vcpu = running.vcpus[0]
        queue = virt.host.runqueues[vcpu.runqueue_id]
        queue.entities.remove(vcpu)  # lose it without updating state
        problems = lifecycle_checker(virt.host, [running, paused])(0)
        assert any("on no queue" in m for m in problems)

    def test_lifecycle_checker_flags_runnable_vcpu_on_unbuilt_queue(self):
        virt, horse, running, paused = make_paused_pair()
        host = virt.host
        vcpu = running.vcpus[0]
        host.runqueues[vcpu.runqueue_id].entities.remove(vcpu)
        unbuilt = host.spec.total_cores - 2  # a general queue nothing used
        assert unbuilt not in host.runqueues
        vcpu.state = VcpuState.RUNNABLE
        vcpu.runqueue_id = unbuilt
        built = sorted(host.runqueues)
        problems = lifecycle_checker(host, [running, paused])(0)
        assert problems == [
            f"vCPU #{vcpu.vcpu_id} ({running.sandbox_id}) is runnable on "
            f"queue {unbuilt}, which was never built"
        ]
        assert sorted(host.runqueues) == built  # reported, not built

    def test_event_heap_checker_flags_past_events(self):
        engine = Engine()
        engine.schedule_at(100, lambda: None)
        check = event_heap_checker(engine)
        assert check(engine.now) == []
        engine.clock.advance_to(200)  # leave the event stranded at 100
        assert any("before now" in m for m in check(engine.now))

    def test_event_heap_checker_names_a_planted_past_entry_by_label(self):
        # schedule_at refuses a past time, so plant the entry behind
        # that guard: queue it, then move the clock past it.  The O(1)
        # root test must still hand off to the scan that names it, and
        # a cancelled past entry stays unreported.
        engine = Engine()
        engine.schedule_at(300, lambda: None, label="future")
        engine.schedule_at(100, lambda: None, label="planted")
        engine.schedule_at(50, lambda: None, label="dead").cancel()
        check = event_heap_checker(engine)
        assert check(engine.now) == []
        engine.clock.advance_to(200)
        assert engine.next_time() == 50
        assert check(engine.now) == [
            "event 'planted' scheduled at 100 ns, before now=200 ns"
        ]

    def test_dvfs_checker_flags_future_samples(self):
        virt, _, _, _ = make_paused_pair()
        check = dvfs_sample_checker(virt.host)
        assert check(10_000_000) == []
        virt.host.general_runqueues()[0].load.last_update_ns = 99_000_000
        assert any("clock-skewed" in m for m in check(10_000_000))

    def test_p2sm_freshness_via_default_registry(self):
        virt, horse, running, paused = make_paused_pair()
        registry = default_registry(
            host=virt.host,
            sandboxes=[running, paused],
            ull_manager=horse.ull,
        )
        assert registry.run_boundary(0) == []
        # Stale precompute: mutate the queue without refreshing.
        queue = horse.ull.queue(paused.assigned_ull_runqueue)
        queue.entities.insert_sorted(running.vcpus[0])
        found = registry.run_boundary(0)
        assert any(v.checker == "invariant.p2sm_freshness" for v in found)

    def test_pool_checker_flags_non_paused_storage(self):
        from repro.faas import FaaSPlatform, FunctionSpec
        from repro.workloads import FirewallWorkload

        faas = FaaSPlatform.build("firecracker", seed=0)
        faas.register(FunctionSpec("fw", FirewallWorkload()))
        faas.provision_warm("fw", count=1, use_horse=True)
        check = pool_checker(faas.pool)
        assert check(0) == []
        pooled = faas.pool.idle_sandboxes("fw")[0]
        pooled.state = type(pooled.state).RUNNING  # corrupt directly
        assert any("RUNNING" in m or "running" in m for m in check(0))
