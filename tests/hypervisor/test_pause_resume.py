"""Vanilla pause/resume: the six steps and their measured breakdown."""

import pytest

from repro.hypervisor.pause_resume import (
    HOT_STEPS,
    STEP_FINALIZE,
    STEP_LOAD,
    STEP_LOCK,
    STEP_MERGE,
    STEP_PARSE,
    STEP_SANITY,
    ResumeLockBusyError,
)
from repro.hypervisor.platform import firecracker_platform, xen_platform
from repro.hypervisor.sandbox import Sandbox, SandboxError, SandboxState
from repro.hypervisor.vcpu import VcpuState


def place_and_pause(virt, vcpus=2):
    sandbox = Sandbox(vcpus=vcpus, memory_mb=512)
    virt.vanilla.place_initial(sandbox, 0)
    virt.vanilla.pause(sandbox, 0)
    return sandbox


class TestPlaceInitial:
    def test_place_transitions_to_running(self):
        virt = firecracker_platform()
        sandbox = Sandbox(vcpus=2, memory_mb=512)
        virt.vanilla.place_initial(sandbox, 0)
        assert sandbox.state is SandboxState.RUNNING
        assert all(v.state is VcpuState.RUNNABLE for v in sandbox.vcpus)

    def test_place_spreads_vcpus_over_queues(self):
        virt = firecracker_platform()
        sandbox = Sandbox(vcpus=4, memory_mb=512)
        virt.vanilla.place_initial(sandbox, 0)
        queues = {v.runqueue_id for v in sandbox.vcpus}
        assert len(queues) == 4  # least-loaded placement spreads

    def test_place_only_uses_general_queues(self):
        virt = firecracker_platform()
        sandbox = Sandbox(vcpus=8, memory_mb=512)
        virt.vanilla.place_initial(sandbox, 0)
        ull_ids = {q.runqueue_id for q in virt.host.ull_runqueues()}
        assert not ull_ids & {v.runqueue_id for v in sandbox.vcpus}


class TestPause:
    def test_pause_empties_queues(self):
        virt = firecracker_platform()
        sandbox = place_and_pause(virt, vcpus=3)
        assert sandbox.state is SandboxState.PAUSED
        assert all(len(q) == 0 for q in virt.host.runqueues.values())
        assert all(
            v.state is VcpuState.PAUSED and v.runqueue_id is None
            for v in sandbox.vcpus
        )

    def test_pause_result_counts_dequeues(self):
        virt = firecracker_platform()
        sandbox = Sandbox(vcpus=3, memory_mb=512)
        virt.vanilla.place_initial(sandbox, 0)
        result = virt.vanilla.pause(sandbox, 0)
        assert result.dequeued_vcpus == 3
        assert result.duration_ns == round(
            virt.costs.pause_fixed_ns + 3 * virt.costs.pause_dequeue_vcpu_ns
        )

    def test_pause_requires_running(self):
        virt = firecracker_platform()
        sandbox = Sandbox(vcpus=1, memory_mb=512)
        with pytest.raises(SandboxError):
            virt.vanilla.pause(sandbox, 0)


class TestResumeSteps:
    def test_breakdown_has_all_six_steps(self):
        virt = firecracker_platform()
        sandbox = place_and_pause(virt)
        result = virt.vanilla.resume(sandbox, 0)
        assert set(result.breakdown.phases) == {
            STEP_PARSE, STEP_LOCK, STEP_SANITY,
            STEP_MERGE, STEP_LOAD, STEP_FINALIZE,
        }

    def test_resume_requires_paused(self):
        virt = firecracker_platform()
        sandbox = Sandbox(vcpus=1, memory_mb=512)
        virt.vanilla.place_initial(sandbox, 0)
        with pytest.raises(SandboxError):
            virt.vanilla.resume(sandbox, 0)

    def test_resume_leaves_sandbox_running(self):
        virt = firecracker_platform()
        sandbox = place_and_pause(virt)
        virt.vanilla.resume(sandbox, 0)
        assert sandbox.state is SandboxState.RUNNING

    def test_resume_requeues_all_vcpus(self):
        virt = firecracker_platform()
        sandbox = place_and_pause(virt, vcpus=5)
        result = virt.vanilla.resume(sandbox, 0)
        assert len(result.runqueue_ids) == 5
        total = sum(len(q) for q in virt.host.runqueues.values())
        assert total == 5

    def test_resume_queues_stay_sorted(self):
        virt = firecracker_platform()
        sandbox = place_and_pause(virt, vcpus=8)
        virt.vanilla.resume(sandbox, 0)
        for queue in virt.host.runqueues.values():
            assert not queue.invariant_violations()

    def test_lock_released_after_failure(self):
        """Step 2's lock must not leak when sanity checks fail."""
        virt = firecracker_platform()
        sandbox = Sandbox(vcpus=1, memory_mb=512)
        virt.vanilla.place_initial(sandbox, 0)
        with pytest.raises(SandboxError):
            virt.vanilla.resume(sandbox, 0)  # not paused
        # lock free again: a legitimate resume succeeds
        virt.vanilla.pause(sandbox, 0)
        assert virt.vanilla.resume(sandbox, 0).total_ns > 0

    def test_pause_resume_cycle_repeats(self):
        virt = firecracker_platform()
        sandbox = place_and_pause(virt)
        for _ in range(5):
            virt.vanilla.resume(sandbox, 0)
            virt.vanilla.pause(sandbox, 0)
        assert sandbox.state is SandboxState.PAUSED


class TestCalibration:
    def test_1vcpu_resume_is_about_1_1us(self):
        virt = firecracker_platform()
        sandbox = place_and_pause(virt, vcpus=1)
        result = virt.vanilla.resume(sandbox, 0)
        assert result.total_ns == pytest.approx(1100, rel=0.05)

    def test_hot_steps_share_87_5_percent_at_1_vcpu(self):
        virt = firecracker_platform()
        sandbox = place_and_pause(virt, vcpus=1)
        result = virt.vanilla.resume(sandbox, 0)
        assert sum(map(result.breakdown.share, HOT_STEPS)) == pytest.approx(
            0.875, abs=0.01
        )

    def test_hot_steps_share_grows_with_vcpus(self):
        shares = []
        for vcpus in (1, 8, 36):
            virt = firecracker_platform()
            sandbox = place_and_pause(virt, vcpus=vcpus)
            result = virt.vanilla.resume(sandbox, 0)
            shares.append(sum(map(result.breakdown.share, HOT_STEPS)))
        assert shares == sorted(shares)
        assert 0.87 <= shares[0] <= 0.89
        assert shares[-1] >= 0.91

    def test_resume_time_grows_with_vcpus(self):
        totals = []
        for vcpus in (1, 8, 36):
            virt = firecracker_platform()
            sandbox = place_and_pause(virt, vcpus=vcpus)
            totals.append(virt.vanilla.resume(sandbox, 0).total_ns)
        assert totals == sorted(totals)
        assert totals[0] < totals[-1]

    def test_xen_resume_slower_than_firecracker(self):
        def resume_ns(factory):
            virt = factory()
            sandbox = place_and_pause(virt, vcpus=1)
            return virt.vanilla.resume(sandbox, 0).total_ns

        assert resume_ns(xen_platform) > resume_ns(firecracker_platform)
