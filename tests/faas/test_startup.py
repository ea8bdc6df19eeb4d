"""Start strategies: cold / restore / warm / horse timing and behavior."""

import pytest

from repro.core.hot_resume import HorsePauseResume
from repro.faas.function import FunctionSpec
from repro.faas.invocation import StartType
from repro.faas.pool import SandboxPool
from repro.faas.keepalive import FixedWindow
from repro.faas.startup import (
    ColdStart,
    HorseStart,
    PoolMissError,
    RestoreStart,
    WarmStart,
)
from repro.hypervisor.platform import firecracker_platform
from repro.hypervisor.sandbox import Sandbox, SandboxState
from repro.sim.engine import Engine
from repro.sim.units import microseconds, seconds
from repro.workloads import FirewallWorkload


@pytest.fixture
def virt():
    return firecracker_platform()


@pytest.fixture
def spec():
    return FunctionSpec("fw", FirewallWorkload(), vcpus=1, memory_mb=512)


def make_pool(virt):
    return SandboxPool(Engine(), FixedWindow(seconds(600)))


class TestColdStart:
    def test_produces_running_sandbox(self, virt, spec):
        outcome = ColdStart(virt).obtain(spec, 0)
        assert outcome.sandbox.state is SandboxState.RUNNING
        assert outcome.start_type is StartType.COLD

    def test_init_is_about_1_5s(self, virt, spec):
        outcome = ColdStart(virt).obtain(spec, 0)
        assert outcome.init_ns == pytest.approx(seconds(1.5), rel=0.05)

    def test_allocates_memory(self, virt, spec):
        before = virt.host.memory_used_mb
        ColdStart(virt).obtain(spec, 0)
        assert virt.host.memory_used_mb == before + 512


class TestRestoreStart:
    def test_first_obtain_creates_snapshot(self, virt, spec):
        strategy = RestoreStart(virt)
        outcome = strategy.obtain(spec, 0)
        assert outcome.start_type is StartType.RESTORE
        assert f"faasnap:{spec.name}" in virt.snapshots

    def test_init_is_about_1300us(self, virt, spec):
        outcome = RestoreStart(virt).obtain(spec, 0)
        assert outcome.init_ns == pytest.approx(microseconds(1300), rel=0.05)

    def test_snapshot_reused_across_obtains(self, virt, spec):
        strategy = RestoreStart(virt)
        strategy.obtain(spec, 0)
        strategy.obtain(spec, 0)
        assert virt.snapshots.restores == 2
        assert len(virt.snapshots.names()) == 1

    def test_restored_sandbox_running(self, virt, spec):
        outcome = RestoreStart(virt).obtain(spec, 0)
        assert outcome.sandbox.state is SandboxState.RUNNING


class TestWarmStart:
    def test_miss_raises(self, virt, spec):
        pool = make_pool(virt)
        with pytest.raises(PoolMissError):
            WarmStart(virt, pool).obtain(spec, 0)

    def test_hit_resumes_pooled_sandbox(self, virt, spec):
        pool = make_pool(virt)
        sandbox = Sandbox(vcpus=1, memory_mb=512)
        virt.vanilla.place_initial(sandbox, 0)
        virt.vanilla.pause(sandbox, 0)
        pool.release("fw", sandbox)
        outcome = WarmStart(virt, pool).obtain(spec, 0)
        assert outcome.sandbox is sandbox
        assert outcome.sandbox.state is SandboxState.RUNNING
        assert outcome.init_ns == pytest.approx(1100, rel=0.05)


class TestHorseStart:
    def test_hit_uses_fast_path(self, virt, spec):
        pool = make_pool(virt)
        horse = HorsePauseResume(virt.host, virt.policy, virt.costs)
        sandbox = Sandbox(vcpus=1, memory_mb=512, is_ull=True)
        virt.vanilla.place_initial(sandbox, 0)
        horse.pause(sandbox, 0)
        pool.release("fw", sandbox)
        outcome = HorseStart(virt, pool, horse).obtain(spec, 0)
        assert outcome.start_type is StartType.HORSE
        assert outcome.init_ns < 200

    def test_miss_raises(self, virt, spec):
        pool = make_pool(virt)
        horse = HorsePauseResume(virt.host, virt.policy, virt.costs)
        with pytest.raises(PoolMissError):
            HorseStart(virt, pool, horse).obtain(spec, 0)

    def test_ordering_cold_gt_restore_gt_warm_gt_horse(self, virt, spec):
        """The evaluation's central ordering of start latencies."""
        pool = make_pool(virt)
        horse = HorsePauseResume(virt.host, virt.policy, virt.costs)
        for use_horse in (False, True):
            sandbox = Sandbox(vcpus=1, memory_mb=512, is_ull=use_horse)
            virt.vanilla.place_initial(sandbox, 0)
            if use_horse:
                horse.pause(sandbox, 0)
            else:
                virt.vanilla.pause(sandbox, 0)
            pool.release("fw", sandbox)
        cold = ColdStart(virt).obtain(spec, 0).init_ns
        restore = RestoreStart(virt).obtain(spec, 0).init_ns
        warm = WarmStart(virt, pool).obtain(spec, 0).init_ns
        fast = HorseStart(virt, pool, horse).obtain(spec, 0).init_ns
        assert cold > restore > warm > fast
