"""SandboxPool: acquire/release, keep-alive eviction, provisioning,
and the prewarm lifecycle policies that arm its eviction timers."""

import pytest

from repro.faas.function import FunctionSpec
from repro.faas.platform import FaaSPlatform
from repro.faas.pool import SandboxPool
from repro.faas.keepalive import FixedWindow, HybridHistogram, NoKeepAlive
from repro.hypervisor.platform import firecracker_platform
from repro.hypervisor.sandbox import Sandbox, SandboxState
from repro.sim.engine import Engine
from repro.sim.units import seconds
from repro.workloads import FirewallWorkload


def paused_box(virt, vcpus=1):
    sandbox = Sandbox(vcpus=vcpus, memory_mb=128)
    virt.vanilla.place_initial(sandbox, 0)
    virt.vanilla.pause(sandbox, 0)
    return sandbox


@pytest.fixture
def setup():
    engine = Engine()
    virt = firecracker_platform()
    pool = SandboxPool(engine, FixedWindow(seconds(10)))
    return engine, virt, pool


class TestAcquireRelease:
    def test_acquire_empty_pool_misses(self, setup):
        _, _, pool = setup
        assert pool.acquire("fw") is None
        assert pool.misses == 1

    def test_release_then_acquire_hits(self, setup):
        _, virt, pool = setup
        sandbox = paused_box(virt)
        pool.release("fw", sandbox)
        assert pool.acquire("fw") is sandbox
        assert pool.hits == 1

    def test_fifo_order(self, setup):
        _, virt, pool = setup
        first = paused_box(virt)
        second = paused_box(virt)
        pool.release("fw", first)
        pool.release("fw", second)
        assert pool.acquire("fw") is first
        assert pool.acquire("fw") is second

    def test_release_requires_paused(self, setup):
        _, virt, pool = setup
        sandbox = Sandbox(vcpus=1, memory_mb=128)
        virt.vanilla.place_initial(sandbox, 0)  # RUNNING
        with pytest.raises(ValueError):
            pool.release("fw", sandbox)

    def test_per_function_isolation(self, setup):
        _, virt, pool = setup
        pool.release("fw", paused_box(virt))
        assert pool.acquire("other") is None
        assert pool.acquire("fw") is not None

    def test_sizes(self, setup):
        _, virt, pool = setup
        pool.release("fw", paused_box(virt))
        pool.release("fw", paused_box(virt))
        pool.release("nat", paused_box(virt))
        assert pool.size("fw") == 2
        assert pool.total_size() == 3


class TestKeepAliveEviction:
    def test_idle_sandbox_evicted_after_window(self, setup):
        engine, virt, _ = setup
        evicted = []
        pool = SandboxPool(
            engine, FixedWindow(seconds(10)), on_evict=evicted.append
        )
        sandbox = paused_box(virt)
        pool.release("fw", sandbox)
        engine.run(until=seconds(11))
        assert pool.size("fw") == 0
        assert sandbox.state is SandboxState.STOPPED
        assert evicted == [sandbox]
        assert pool.evictions == 1

    def test_platform_eviction_frees_memory_at_the_window(self):
        # The platform binds the pool's eviction hook to its uLL
        # manager's reclaim, not to itself: the eviction still fires at
        # the keep-alive instant and returns the sandbox's memory.
        faas = FaaSPlatform.build("firecracker")
        faas.register(FunctionSpec("fw", FirewallWorkload(), memory_mb=128))
        faas.provision_warm("fw", count=1)
        (sandbox,) = faas.pool.idle_sandboxes("fw")
        used = faas.virt.host.memory_used_mb
        assert sandbox.assigned_ull_runqueue is not None  # a HORSE pause
        assert faas.pool._on_evict == faas.ull_manager.reclaim
        assert eviction_deadline(faas.engine, sandbox) == seconds(600)
        faas.engine.run(until=seconds(600) - 1)
        assert faas.virt.host.memory_used_mb == used
        faas.engine.run(until=seconds(600))
        assert sandbox.state is SandboxState.STOPPED
        assert faas.virt.host.memory_used_mb == used - 128
        assert sandbox.assigned_ull_runqueue is None

    def test_acquire_before_window_cancels_eviction(self, setup):
        engine, virt, pool = setup
        sandbox = paused_box(virt)
        pool.release("fw", sandbox)
        engine.run(until=seconds(5))
        assert pool.acquire("fw") is sandbox
        engine.run(until=seconds(60))
        assert sandbox.state is SandboxState.PAUSED  # untouched

    def test_provisioned_quota_never_evicted(self, setup):
        engine, virt, pool = setup
        pool.mark_provisioned("fw", 1)
        sandbox = paused_box(virt)
        pool.release("fw", sandbox)
        engine.run(until=seconds(120))
        assert pool.size("fw") == 1

    def test_beyond_quota_still_evicted(self, setup):
        engine, virt, pool = setup
        pool.mark_provisioned("fw", 1)
        keeper = paused_box(virt)
        extra = paused_box(virt)
        pool.release("fw", keeper)
        pool.release("fw", extra)
        engine.run(until=seconds(120))
        assert pool.size("fw") == 1
        assert pool.idle_sandboxes("fw") == [keeper]

    def test_negative_quota_rejected(self, setup):
        _, _, pool = setup
        with pytest.raises(ValueError):
            pool.mark_provisioned("fw", -1)

    def test_rerelease_rearms_timer(self, setup):
        engine, virt, pool = setup
        sandbox = paused_box(virt)
        pool.release("fw", sandbox)
        engine.run(until=seconds(5))
        assert pool.acquire("fw") is sandbox
        pool.release("fw", sandbox)
        engine.run(until=seconds(14))  # 9 s after re-release: still alive
        assert pool.size("fw") == 1
        engine.run(until=seconds(16))
        assert pool.size("fw") == 0


def eviction_deadline(engine, sandbox):
    """When the armed keep-alive timer for *sandbox* fires."""
    (event,) = [
        e for e in engine.pending_events()
        if e.label == f"keepalive-evict:{sandbox.sandbox_id}"
    ]
    return event.time


class TestLifecyclePolicies:
    """The pool's eviction window comes from a keepalive.PrewarmPolicy:
    ``prewarm + keep_alive`` of the function's current decision."""

    @staticmethod
    def hybrid(**overrides):
        params = dict(
            bin_width_ns=seconds(5), min_observations=4,
            default_keep_ns=seconds(30),
        )
        params.update(overrides)
        return HybridHistogram(**params)

    def test_fixed_window_arms_timer_at_window(self, setup):
        engine, virt, pool = setup
        engine.run(until=seconds(3))
        sandbox = paused_box(virt)
        pool.release("fw", sandbox)
        assert eviction_deadline(engine, sandbox) == seconds(13)

    def test_default_platform_window_is_10_minutes(self):
        faas = FaaSPlatform.build("firecracker")
        sandbox = paused_box(faas.virt)
        faas.pool.release("fw", sandbox)
        assert eviction_deadline(faas.engine, sandbox) == seconds(600)

    def test_nonpositive_fixed_window_rejected(self):
        with pytest.raises(ValueError):
            FixedWindow(0)

    def test_fixed_window_ignores_observed_gaps(self):
        engine, virt = Engine(), firecracker_platform()
        policy = FixedWindow(seconds(10))
        pool = SandboxPool(engine, policy)
        policy.observe_gap("fw", seconds(99999))
        sandbox = paused_box(virt)
        pool.release("fw", sandbox)
        assert eviction_deadline(engine, sandbox) == seconds(10)

    def test_hybrid_arms_default_before_enough_gaps(self):
        engine, virt = Engine(), firecracker_platform()
        policy = self.hybrid()
        pool = SandboxPool(engine, policy)
        for _ in range(3):
            policy.observe_gap("fw", seconds(7))
        sandbox = paused_box(virt)
        pool.release("fw", sandbox)
        assert eviction_deadline(engine, sandbox) == seconds(30)

    def test_hybrid_adapts_to_observed_gaps(self):
        engine, virt = Engine(), firecracker_platform()
        policy = self.hybrid(default_keep_ns=seconds(600))
        pool = SandboxPool(engine, policy)
        for _ in range(8):
            policy.observe_gap("fw", seconds(7))
        sandbox = paused_box(virt)
        pool.release("fw", sandbox)
        # Gaps in bin 1 -> adaptive window, no longer the fallback.
        assert eviction_deadline(engine, sandbox) < seconds(600)

    def test_hybrid_arms_prewarm_plus_keep_alive(self):
        engine, virt = Engine(), firecracker_platform()
        policy = self.hybrid()
        pool = SandboxPool(engine, policy)
        for _ in range(8):
            policy.observe_gap("fw", seconds(42))
        decision = policy.decision("fw")
        assert decision.prewarm_ns is not None
        sandbox = paused_box(virt)
        pool.release("fw", sandbox)
        assert eviction_deadline(engine, sandbox) == (
            decision.prewarm_ns + decision.keep_alive_ns
        )

    def test_hybrid_per_function_isolation(self):
        engine, virt = Engine(), firecracker_platform()
        policy = self.hybrid(min_observations=2)
        pool = SandboxPool(engine, policy)
        for _ in range(4):
            policy.observe_gap("short", seconds(2))
            policy.observe_gap("long", seconds(200))
        short, long = paused_box(virt), paused_box(virt)
        pool.release("short", short)
        pool.release("long", long)
        assert eviction_deadline(engine, short) < eviction_deadline(engine, long)

    def test_negative_gap_rejected(self):
        with pytest.raises(ValueError):
            self.hybrid().observe_gap("fw", -1)

    def test_no_keep_alive_evicts_at_release_instant(self):
        engine, virt = Engine(), firecracker_platform()
        pool = SandboxPool(engine, NoKeepAlive())
        engine.run(until=seconds(2))
        sandbox = paused_box(virt)
        pool.release("fw", sandbox)
        assert eviction_deadline(engine, sandbox) == seconds(2)
        engine.run(until=seconds(2))
        assert pool.size("fw") == 0
        assert sandbox.state is SandboxState.STOPPED

    def test_provisioned_quota_suppresses_policy_timer(self):
        engine, virt = Engine(), firecracker_platform()
        pool = SandboxPool(engine, NoKeepAlive())
        pool.mark_provisioned("fw", 1)
        sandbox = paused_box(virt)
        pool.release("fw", sandbox)
        assert not engine.pending_events()
        engine.run(until=seconds(60))
        assert pool.idle_sandboxes("fw") == [sandbox]
