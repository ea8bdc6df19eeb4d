"""The observability bundle and the active-context stack."""

import pytest

from repro.hypervisor.vcpu import Vcpu
from repro.obs.context import NULL_OBS, Observability, activate, current
from repro.obs.metrics import NULL_REGISTRY, MetricRegistry
from repro.obs.span import NULL_TRACER


class TestBundle:
    def test_default_bundle_is_enabled(self):
        obs = Observability()
        assert obs.enabled is True
        assert obs.tracer.enabled is True
        assert obs.metrics.enabled is True

    def test_null_bundle_is_disabled(self):
        assert NULL_OBS.enabled is False
        assert NULL_OBS.tracer is NULL_TRACER
        assert NULL_OBS.metrics is NULL_REGISTRY

    @pytest.mark.parametrize("name", ["tracer", "metrics", "enabled"])
    def test_bundle_is_immutable(self, name):
        obs = Observability()
        before = getattr(obs, name)
        with pytest.raises(AttributeError, match="immutable"):
            setattr(obs, name, None)
        assert getattr(obs, name) is before

    def test_reattached_host_counts_into_the_new_registry(self):
        from repro.hypervisor.platform import firecracker_platform

        first, second = MetricRegistry(), MetricRegistry()
        platform = firecracker_platform()
        platform.attach_observability(Observability(NULL_TRACER, first))
        queue = platform.host.runqueue(0)
        queue.enqueue_sorted(Vcpu(0, "a"), 0)
        platform.attach_observability(Observability(NULL_TRACER, second))
        queue.enqueue_sorted(Vcpu(0, "b"), 0)
        assert first.snapshot()["runqueue.enqueue"]["value"] == 1
        assert second.snapshot()["runqueue.enqueue"]["value"] == 1

    def test_reattach_exports_no_count_made_before_it(self):
        from repro.hypervisor.platform import firecracker_platform
        from repro.hypervisor.sandbox import Sandbox

        first, second = MetricRegistry(), MetricRegistry()
        platform = firecracker_platform()
        platform.attach_observability(Observability(NULL_TRACER, first))
        sandbox = Sandbox(vcpus=4, memory_mb=128, sandbox_id="sb")
        platform.vanilla.place_initial(sandbox, 0)
        platform.vanilla.pause(sandbox, 1_000)
        platform.vanilla.resume(sandbox, 2_000)
        platform.attach_observability(Observability(NULL_TRACER, second))
        before = first.snapshot()
        assert before["load.fold.iterated"]["value"] == 8
        assert before["runqueue.enqueue"]["value"] == 8
        assert before["scheduler.cfs.enqueue"]["value"] == 8
        derived = (
            "load.fold.iterated", "load.fold.coalesced", "runqueue.enqueue",
            "runqueue.scan_steps", "runqueue.dequeue", "runqueue.last_len",
            "scheduler.cfs.enqueue",
        )
        after = second.snapshot()
        assert {name: after[name]["value"] for name in derived if name in after} \
            == {"load.fold.iterated": 0, "load.fold.coalesced": 0}
        # The first registry was flushed at re-attach and hears no more.
        platform.vanilla.pause(sandbox, 3_000)
        assert first.snapshot() == before
        assert second.snapshot()["runqueue.dequeue"]["value"] == 4


    def test_frozen_export_flushes_then_lets_go_of_the_host(self):
        # A closed cell freezes its exports: the registry keeps its
        # collectors, but a frozen one must not pin the model it counted.
        import weakref

        from repro.hypervisor.platform import firecracker_platform

        registry = MetricRegistry()
        platform = firecracker_platform()
        platform.attach_observability(Observability(NULL_TRACER, registry))
        platform.host.runqueue(0).enqueue_sorted(Vcpu(0, "a"), 0)
        export = platform.export
        host = weakref.ref(platform.host)
        export.freeze()
        assert export.host is None and export.policy is None
        del platform
        assert host() is None
        snapshot = registry.snapshot()
        assert snapshot["runqueue.enqueue"]["value"] == 1
        assert snapshot["runqueue.last_len"]["value"] == 1


class TestActiveContext:
    def test_default_is_null(self):
        assert current() is NULL_OBS

    def test_activate_nests_and_restores(self):
        outer = Observability()
        inner = Observability()
        with activate(outer):
            assert current() is outer
            with activate(inner):
                assert current() is inner
            assert current() is outer
        assert current() is NULL_OBS

    def test_activate_restores_on_exception(self):
        obs = Observability()
        try:
            with activate(obs):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert current() is NULL_OBS

    def test_platforms_built_inside_pick_up_bundle(self):
        from repro.hypervisor.platform import firecracker_platform

        obs = Observability()
        with activate(obs):
            platform = firecracker_platform()
        assert platform.vanilla.obs is obs

    def test_platforms_built_outside_stay_null(self):
        from repro.hypervisor.platform import firecracker_platform

        platform = firecracker_platform()
        assert platform.vanilla.obs is NULL_OBS

    def test_bundle_alone_installs_nothing_else(self):
        # What perfbench's obs rounds activate: no profiler, no checker,
        # no gc hook, no engine watcher.
        import gc

        from repro.faas import FaaSPlatform
        from repro.obs.context import current_run

        callbacks = list(gc.callbacks)
        obs = Observability(NULL_TRACER, MetricRegistry())
        with activate(obs):
            assert tuple(current_run()) == (obs, None, None)
            assert gc.callbacks == callbacks
            faas = FaaSPlatform.build()
        assert faas.engine._profiler is None
        assert faas.engine._watchers == []

    def test_registry_in_context_watches_what_is_built_inside(self):
        from repro.check import InvariantRegistry
        from repro.faas import FaaSPlatform
        from repro.hypervisor.platform import firecracker_platform

        registry = InvariantRegistry()
        with activate(invariants=registry):
            faas = FaaSPlatform.build()
            firecracker_platform()
        assert current() is NULL_OBS
        assert (registry.engines, registry.hosts, registry.pools) == (1, 2, 1)
        faas.engine.schedule_at(10, lambda: None)
        faas.engine.run()
        assert registry.events_seen == 1
        assert registry.run_boundary(faas.engine.now) == []
