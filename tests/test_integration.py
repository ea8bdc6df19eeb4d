"""End-to-end integration: multi-function platforms, determinism,
failure behavior, and cross-layer invariants."""

import pytest

from repro.faas import FaaSPlatform, FunctionSpec, StartType
from repro.faas.startup import PoolMissError
from repro.hypervisor.sandbox import SandboxState
from repro.sim.units import SECOND, seconds
from repro.workloads import (
    ArrayFilterWorkload,
    FirewallWorkload,
    MlInferenceWorkload,
    NatWorkload,
    OrderRiskWorkload,
    ThumbnailWorkload,
)


def build_multi_function_platform(seed=11):
    faas = FaaSPlatform.build("firecracker", seed=seed)
    for spec in (
        FunctionSpec("firewall", FirewallWorkload()),
        FunctionSpec("nat", NatWorkload()),
        FunctionSpec("filter", ArrayFilterWorkload()),
        FunctionSpec("inference", MlInferenceWorkload()),
        FunctionSpec("risk", OrderRiskWorkload()),
        FunctionSpec("thumbnail", ThumbnailWorkload(), vcpus=2, memory_mb=1024),
    ):
        faas.register(spec)
    return faas


class TestMultiFunctionPlatform:
    def test_mixed_ull_and_long_running_traffic(self):
        faas = build_multi_function_platform()
        for name in ("firewall", "nat", "filter", "inference", "risk"):
            faas.provision_warm(name, count=2)
        faas.provision_warm("thumbnail", count=2, use_horse=False)

        invocations = []
        for round_index in range(3):
            for name in ("firewall", "nat", "filter", "inference", "risk"):
                invocations.append(
                    faas.trigger(name, StartType.HORSE, run_logic=True)
                )
            invocations.append(faas.trigger("thumbnail", StartType.WARM,
                                            run_logic=True))
            faas.engine.run(until=faas.engine.now + seconds(5))

        assert all(inv.completed for inv in invocations)
        assert all(inv.error is None for inv in invocations)
        ull = [i for i in invocations if i.function_name != "thumbnail"]
        assert all(i.initialization_ns < 200 for i in ull)
        long_running = [i for i in invocations if i.function_name == "thumbnail"]
        assert all(i.initialization_ns > 500 for i in long_running)

    def test_host_memory_balances_after_evictions(self):
        faas = build_multi_function_platform()
        faas.provision_warm("firewall", count=4)
        used_after_provision = faas.virt.host.memory_used_mb
        assert used_after_provision == 4 * 512
        faas.engine.run(until=seconds(700))  # all keep-alives expire
        assert faas.virt.host.memory_used_mb == 0

    def test_ull_manager_has_no_leaked_assignments(self):
        faas = build_multi_function_platform()
        faas.provision_warm("firewall", count=3)
        for _ in range(6):
            faas.trigger("firewall", StartType.HORSE)
            faas.engine.run(until=faas.engine.now + seconds(1))
        # all sandboxes back in the pool, each with a live assignment
        counts = faas.ull_manager.assignment_counts()
        assert sum(counts.values()) == 3

    def test_run_queues_stay_sorted_through_churn(self):
        faas = build_multi_function_platform()
        faas.provision_warm("firewall", count=2)
        faas.provision_warm("nat", count=2)
        for _ in range(10):
            faas.trigger("firewall", StartType.HORSE)
            faas.trigger("nat", StartType.HORSE)
            faas.engine.run(until=faas.engine.now + seconds(1))
        for runqueue in faas.virt.host.runqueues.values():
            assert not runqueue.invariant_violations()


class TestDeterminism:
    def _run(self, seed):
        faas = build_multi_function_platform(seed=seed)
        faas.provision_warm("firewall", count=1)
        timeline = []
        for _ in range(5):
            invocation = faas.trigger("firewall", StartType.HORSE)
            faas.engine.run(until=faas.engine.now + seconds(1))
            timeline.append(
                (invocation.initialization_ns, invocation.execution_ns)
            )
        return timeline

    def test_same_seed_same_timeline(self):
        assert self._run(5) == self._run(5)

    def test_different_seed_different_execution_draws(self):
        a = self._run(5)
        b = self._run(6)
        assert [x[1] for x in a] != [x[1] for x in b]


class TestFailureBehavior:
    def test_pool_miss_is_loud_not_silent(self):
        faas = build_multi_function_platform()
        with pytest.raises(PoolMissError):
            faas.trigger("firewall", StartType.WARM)

    def test_memory_exhaustion_raises(self):
        faas = FaaSPlatform.build("firecracker")
        faas.register(
            FunctionSpec("big", FirewallWorkload(), memory_mb=64 * 1024)
        )
        faas.provision_warm("big", count=1)
        # Host has 128 GB: the third 64 GB sandbox must fail cleanly.
        with pytest.raises(MemoryError):
            faas.provision_warm("big", count=2)

    def test_failed_function_logic_is_recorded_not_raised(self):
        class ExplodingWorkload(FirewallWorkload):
            name = "exploding"

            def execute(self, payload):
                raise RuntimeError("function bug")

        faas = FaaSPlatform.build("firecracker")
        faas.register(FunctionSpec("exploding", ExplodingWorkload()))
        invocation = faas.trigger("exploding", StartType.COLD, run_logic=True)
        faas.engine.run(until=seconds(3))
        assert invocation.completed
        assert invocation.error is not None
        assert "function bug" in invocation.error

    def test_no_return_to_pool_leaves_sandbox_running(self):
        faas = build_multi_function_platform()
        faas.provision_warm("firewall", count=1)
        invocation = faas.trigger(
            "firewall", StartType.HORSE, return_to_pool=False
        )
        faas.engine.run(until=seconds(1))
        assert invocation.completed
        assert faas.pool.size("firewall") == 0


class TestXenPlatformEndToEnd:
    def test_full_cycle_on_xen(self):
        faas = FaaSPlatform.build("xen", seed=1)
        faas.register(FunctionSpec("firewall", FirewallWorkload()))
        faas.provision_warm("firewall", count=1)
        horse_inv = faas.trigger("firewall", StartType.HORSE)
        faas.engine.run(until=seconds(1))
        assert horse_inv.completed
        assert horse_inv.initialization_ns < 200

    def test_xen_warm_slower_than_firecracker_warm(self):
        results = {}
        for platform in ("firecracker", "xen"):
            faas = FaaSPlatform.build(platform, seed=1)
            faas.register(FunctionSpec("firewall", FirewallWorkload()))
            faas.provision_warm("firewall", count=1, use_horse=False)
            invocation = faas.trigger("firewall", StartType.WARM)
            faas.engine.run(until=seconds(1))
            results[platform] = invocation.initialization_ns
        assert results["xen"] > results["firecracker"]
