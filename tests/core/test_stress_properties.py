"""Property/stress tests across the pause/resume machinery.

These drive randomized interleavings of lifecycle operations over many
sandboxes and check the global invariants that must survive *any*
schedule: queues stay sorted, sizes match, no vCPU is lost or
duplicated, assignments stay consistent.  This class of test is what
catches cross-sandbox staleness bugs (e.g. arrayB referencing unlinked
nodes after another sandbox's pause).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hot_resume import HorseConfig, HorsePauseResume
from repro.hypervisor.platform import firecracker_platform
from repro.hypervisor.sandbox import Sandbox, SandboxState
from repro.hypervisor.vcpu import VcpuState


def check_global_invariants(virt, sandboxes, horse):
    """Invariants that must hold between any two operations."""
    # 1. Every run queue is sorted with a consistent size counter.
    for runqueue in virt.host.runqueues.values():
        assert not runqueue.invariant_violations()
    # 2. vCPU placement matches sandbox state; no vCPU lost/duplicated.
    queued_ids = [
        vcpu.vcpu_id
        for runqueue in virt.host.runqueues.values()
        for vcpu in runqueue.members()
    ]
    assert len(queued_ids) == len(set(queued_ids)), "vCPU duplicated on queues"
    queued = set(queued_ids)
    for sandbox in sandboxes:
        for vcpu in sandbox.vcpus:
            if sandbox.state is SandboxState.RUNNING:
                assert vcpu.vcpu_id in queued, f"{vcpu!r} lost while running"
            elif sandbox.state is SandboxState.PAUSED:
                assert vcpu.vcpu_id not in queued, f"{vcpu!r} leaked on a queue"
    # 3. Assignment table consistent with sandbox attributes.
    for queue_id, members in (
        (qid, horse.ull.assigned_to(qid)) for qid in horse.ull.queue_ids
    ):
        for sandbox in members:
            assert sandbox.assigned_ull_runqueue == queue_id


# Each op is (sandbox_index, action); actions resolve to legal
# operations at runtime: pause if running, resume if paused.
@st.composite
def operation_sequences(draw):
    count = draw(st.integers(min_value=2, max_value=5))
    ops = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=count - 1),
                st.sampled_from(["toggle", "toggle", "vanilla_resume"]),
            ),
            min_size=1,
            max_size=30,
        )
    )
    vcpus = draw(st.integers(min_value=1, max_value=6))
    return count, vcpus, ops


class TestRandomInterleavings:
    @given(operation_sequences())
    @settings(max_examples=40, deadline=None)
    def test_invariants_survive_any_schedule(self, scenario):
        count, vcpus, ops = scenario
        virt = firecracker_platform(reserved_ull_cores=2)
        horse = HorsePauseResume(virt.host, virt.policy, virt.costs)
        sandboxes = []
        for _ in range(count):
            sandbox = Sandbox(vcpus=vcpus, memory_mb=128, is_ull=True)
            virt.vanilla.place_initial(sandbox, 0)
            sandboxes.append(sandbox)

        now = 0
        for index, action in ops:
            now += 1_000
            sandbox = sandboxes[index]
            if action == "toggle":
                if sandbox.state is SandboxState.RUNNING:
                    horse.pause(sandbox, now)
                elif sandbox.state is SandboxState.PAUSED:
                    horse.resume(sandbox, now)
            elif action == "vanilla_resume":
                if sandbox.state is SandboxState.PAUSED:
                    virt.vanilla.resume(sandbox, now)
            check_global_invariants(virt, sandboxes, horse)

    @given(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=12),
    )
    @settings(max_examples=30, deadline=None)
    def test_repeated_cycles_preserve_flat_resume(self, vcpus, cycles):
        """However many pause/resume cycles, the HORSE resume cost
        stays identical — no state accumulates on the fast path."""
        virt = firecracker_platform()
        horse = HorsePauseResume(virt.host, virt.policy, virt.costs)
        sandbox = Sandbox(vcpus=vcpus, memory_mb=128, is_ull=True)
        virt.vanilla.place_initial(sandbox, 0)
        costs = set()
        for cycle in range(cycles):
            horse.pause(sandbox, cycle * 10)
            costs.add(horse.resume(sandbox, cycle * 10 + 5).total_ns)
        assert len(costs) == 1

    @given(st.integers(min_value=2, max_value=6))
    @settings(max_examples=20, deadline=None)
    def test_all_paused_then_all_resumed_union(self, count):
        """Pausing N sandboxes then resuming them all yields a queue
        holding exactly the union of their vCPUs, sorted."""
        virt = firecracker_platform(reserved_ull_cores=1)
        horse = HorsePauseResume(virt.host, virt.policy, virt.costs)
        sandboxes = []
        for _ in range(count):
            sandbox = Sandbox(vcpus=3, memory_mb=128, is_ull=True)
            virt.vanilla.place_initial(sandbox, 0)
            horse.pause(sandbox, 0)
            sandboxes.append(sandbox)
        for sandbox in sandboxes:
            horse.resume(sandbox, 0)
        queue = horse.ull.queue(horse.ull.queue_ids[0])
        assert len(queue) == 3 * count
        assert not queue.invariant_violations()
        expected = {
            vcpu.vcpu_id for sandbox in sandboxes for vcpu in sandbox.vcpus
        }
        assert {vcpu.vcpu_id for vcpu in queue.members()} == expected


class TestConfigurationVariants:
    @pytest.mark.parametrize(
        "config",
        [HorseConfig.full(), HorseConfig.ppsm_only(), HorseConfig.coalescing_only()],
        ids=["horse", "ppsm", "coal"],
    )
    def test_ten_sandboxes_cycle_under_every_config(self, config):
        virt = firecracker_platform(reserved_ull_cores=2)
        horse = HorsePauseResume(virt.host, virt.policy, virt.costs, config=config)
        sandboxes = []
        for _ in range(10):
            sandbox = Sandbox(vcpus=4, memory_mb=128, is_ull=True)
            virt.vanilla.place_initial(sandbox, 0)
            sandboxes.append(sandbox)
        for _ in range(3):
            for sandbox in sandboxes:
                horse.pause(sandbox, 0)
            for sandbox in sandboxes:
                horse.resume(sandbox, 0)
        check_global_invariants(virt, sandboxes, horse)
        for sandbox in sandboxes:
            assert all(v.state is VcpuState.RUNNABLE for v in sandbox.vcpus)


class TestDifferentialResume500:
    """Satellite differential suite: 500 seeded cases per property.

    Case generation is fully deterministic (RngRegistry streams), so a
    failure reproduces from the case index alone.
    """

    CASES = 500

    def test_500_resumes_match_the_vanilla_replay(self):
        """vanilla vs P2SM merge: for 500 randomized pause states the
        post-resume queue order must equal the vanilla per-element
        insert replay, and the load must match to the oracle's ULP
        budget (coalesced) or exactly (iterated)."""
        from repro.check import snapshot_before_resume, verify_resume
        from repro.sim.rng import RngRegistry

        configs = [
            HorseConfig.full(),
            HorseConfig.ppsm_only(),
            HorseConfig.coalescing_only(),
        ]
        rng = RngRegistry(1234).stream("diff500")
        virt = firecracker_platform(reserved_ull_cores=2)
        horse = HorsePauseResume(virt.host, virt.policy, virt.costs)
        for case in range(self.CASES):
            config = configs[case % len(configs)]
            horse.config = config
            # Randomized pause state: a fresh target sandbox amid a few
            # residents already resumed onto the reserved queues, all
            # with randomized vruntimes (the CFS sort key).
            residents = []
            for _ in range(rng.randrange(3)):
                resident = Sandbox(vcpus=rng.randrange(1, 4), memory_mb=64,
                                   is_ull=True)
                for vcpu in resident.vcpus:
                    vcpu.vruntime = rng.uniform(0.0, 50.0)
                virt.vanilla.place_initial(resident, 0)
                horse.pause(resident, 0)
                horse.resume(resident, 0)
                residents.append(resident)
            target = Sandbox(vcpus=rng.randrange(1, 7), memory_mb=64,
                             is_ull=True)
            for vcpu in target.vcpus:
                vcpu.vruntime = rng.uniform(0.0, 50.0)
            virt.vanilla.place_initial(target, 0)
            horse.pause(target, 0)
            snapshot = snapshot_before_resume(horse, target)
            assert snapshot is not None
            horse.resume(target, 0)
            problems = verify_resume(snapshot, horse, 0)
            assert problems == [], f"case {case} ({config}): {problems}"
            # Drain so queue occupancy varies but stays bounded.
            for sandbox in [target, *residents]:
                horse.pause(sandbox, 0)
                virt.vanilla.resume(sandbox, 0)

    def test_500_coalesced_folds_match_closed_form_to_zero_ulps(self):
        """The fused update must equal the closed form bit-for-bit and
        sit within the calibrated ULP budget of n-fold application."""
        from repro.check import DEFAULT_MAX_ULPS
        from repro.core.coalesce import (
            AffineUpdate,
            CoalescedUpdate,
            apply_n_times,
            ulps_apart,
        )
        from repro.hypervisor.load_tracking import DECAY_FACTOR
        from repro.sim.rng import RngRegistry

        rng = RngRegistry(99).stream("coalesce500")
        for case in range(self.CASES):
            weight = rng.choice([256.0, 512.0, 1024.0, 2048.0])
            alpha = DECAY_FACTOR
            beta = weight * (1.0 - DECAY_FACTOR)
            n = rng.randrange(1, 65)
            x = rng.uniform(0.0, 40_000.0)
            update = CoalescedUpdate.precompute(alpha, beta, n)
            # Closed form, recomputed independently of precompute().
            alpha_n = alpha ** n
            closed = alpha_n * x + beta * (1.0 - alpha_n) / (1.0 - alpha)
            assert ulps_apart(update.apply(x), closed) == 0, f"case {case}"
            iterated = apply_n_times(AffineUpdate(alpha, beta), x, n)
            gap = ulps_apart(update.apply(x), iterated)
            assert gap <= DEFAULT_MAX_ULPS, (
                f"case {case}: n={n} x={x}: {gap} ULPs"
            )
