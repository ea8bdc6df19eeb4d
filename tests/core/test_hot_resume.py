"""HorsePauseResume: the fast path's behavior and cost structure."""

import pytest

from repro.core.hot_resume import HorseConfig, HorsePauseResume
from repro.hypervisor.pause_resume import STEP_LOAD, STEP_MERGE
from repro.hypervisor.platform import firecracker_platform
from repro.hypervisor.sandbox import Sandbox, SandboxState
from repro.hypervisor.vcpu import VcpuState


def make_fixture(config=HorseConfig.full(), vcpus=4):
    virt = firecracker_platform()
    horse = HorsePauseResume(virt.host, virt.policy, virt.costs, config=config)
    sandbox = Sandbox(vcpus=vcpus, memory_mb=512, is_ull=True)
    virt.vanilla.place_initial(sandbox, 0)
    return virt, horse, sandbox


class TestConfig:
    def test_full_enables_everything(self):
        config = HorseConfig.full()
        assert config.enable_p2sm and config.enable_coalescing
        assert config.fast_command_path

    def test_ppsm_only(self):
        config = HorseConfig.ppsm_only()
        assert config.enable_p2sm and not config.enable_coalescing
        assert not config.fast_command_path

    def test_coalescing_only(self):
        config = HorseConfig.coalescing_only()
        assert not config.enable_p2sm and config.enable_coalescing


class TestPause:
    def test_pause_builds_merge_vcpus_sorted(self):
        virt, horse, sandbox = make_fixture()
        horse.pause(sandbox, 0)
        assert sandbox.merge_vcpus is not None
        keys = [virt.policy.sort_key(v) for v in sandbox.merge_vcpus]
        assert keys == sorted(keys)

    def test_pause_assigns_ull_runqueue(self):
        _, horse, sandbox = make_fixture()
        horse.pause(sandbox, 0)
        assert sandbox.assigned_ull_runqueue in horse.ull.queue_ids

    def test_pause_builds_p2sm_state(self):
        _, horse, sandbox = make_fixture()
        horse.pause(sandbox, 0)
        assert sandbox.p2sm_state is not None
        assert len(sandbox.p2sm_state.values_a) == sandbox.vcpu_count

    def test_pause_precomputes_coalesced_update(self):
        _, horse, sandbox = make_fixture(vcpus=5)
        horse.pause(sandbox, 0)
        assert sandbox.coalesced_update is not None
        assert sandbox.coalesced_update.n == 5

    def test_pause_dequeues_all_vcpus(self):
        virt, horse, sandbox = make_fixture()
        horse.pause(sandbox, 0)
        assert all(v.state is VcpuState.PAUSED for v in sandbox.vcpus)
        assert all(len(rq) == 0 for rq in virt.host.runqueues.values())

    def test_pause_from_paused_rejected(self):
        _, horse, sandbox = make_fixture()
        horse.pause(sandbox, 0)
        with pytest.raises(Exception):
            horse.pause(sandbox, 0)

    def test_coalescing_only_skips_p2sm_state(self):
        _, horse, sandbox = make_fixture(config=HorseConfig.coalescing_only())
        horse.pause(sandbox, 0)
        assert sandbox.p2sm_state is None
        assert sandbox.coalesced_update is not None

    def test_pause_reports_memory_footprint(self):
        virt, horse, sandbox = make_fixture(vcpus=36)
        result = horse.pause(sandbox, 0)
        assert result.precompute_bytes == virt.costs.horse_memory_bytes(36)


class TestResume:
    def test_resume_places_vcpus_on_ull_queue(self):
        _, horse, sandbox = make_fixture()
        horse.pause(sandbox, 0)
        queue_id = sandbox.assigned_ull_runqueue
        result = horse.resume(sandbox, 0)
        assert result.runqueue_ids == [queue_id]
        queue = horse.ull.queue(queue_id)
        assert len(queue) == sandbox.vcpu_count
        assert not queue.invariant_violations()

    def test_resume_sets_running_state(self):
        _, horse, sandbox = make_fixture()
        horse.pause(sandbox, 0)
        horse.resume(sandbox, 0)
        assert sandbox.state is SandboxState.RUNNING
        assert all(v.state is VcpuState.RUNNABLE for v in sandbox.vcpus)

    def test_resume_clears_artifacts(self):
        _, horse, sandbox = make_fixture()
        horse.pause(sandbox, 0)
        horse.resume(sandbox, 0)
        assert sandbox.merge_vcpus is None
        assert sandbox.p2sm_state is None
        assert sandbox.coalesced_update is None
        assert sandbox.assigned_ull_runqueue is None

    def test_resume_without_pause_rejected(self):
        _, horse, sandbox = make_fixture()
        with pytest.raises(Exception):
            horse.resume(sandbox, 0)

    def test_resume_updates_queue_load_once_coalesced(self):
        _, horse, sandbox = make_fixture(vcpus=8)
        horse.pause(sandbox, 0)
        queue = horse.ull.queue(sandbox.assigned_ull_runqueue)
        before = queue.load.updates_applied
        horse.resume(sandbox, 0)
        assert queue.load.updates_applied == before + 1

    def test_resume_per_vcpu_loads_without_coalescing(self):
        _, horse, sandbox = make_fixture(
            config=HorseConfig.ppsm_only(), vcpus=8
        )
        horse.pause(sandbox, 0)
        queue = horse.ull.queue(sandbox.assigned_ull_runqueue)
        before = queue.load.updates_applied
        horse.resume(sandbox, 0)
        assert queue.load.updates_applied == before + 8

    def test_coalesced_load_equals_iterated_load(self):
        """The fused update must leave the same load value the vanilla
        per-vCPU folds would have."""
        _, horse_coal, sandbox_coal = make_fixture(vcpus=12)
        horse_coal.pause(sandbox_coal, 0)
        horse_coal.resume(sandbox_coal, 0)
        queue_coal = horse_coal.ull.queue_ids[0]
        load_coal = horse_coal.ull.queue(queue_coal).load.value

        _, horse_iter, sandbox_iter = make_fixture(
            config=HorseConfig.ppsm_only(), vcpus=12
        )
        horse_iter.pause(sandbox_iter, 0)
        horse_iter.resume(sandbox_iter, 0)
        queue_iter = horse_iter.ull.queue_ids[0]
        load_iter = horse_iter.ull.queue(queue_iter).load.value

        assert load_coal == pytest.approx(load_iter, rel=1e-9)


class TestCostShape:
    def test_full_horse_flat_in_vcpus(self):
        """The headline O(1): resume cost identical for 1 and 36 vCPUs."""
        totals = []
        for vcpus in (1, 8, 36):
            _, horse, sandbox = make_fixture(vcpus=vcpus)
            horse.pause(sandbox, 0)
            totals.append(horse.resume(sandbox, 0).total_ns)
        assert totals[0] == totals[1] == totals[2]

    def test_full_horse_is_about_150ns(self):
        _, horse, sandbox = make_fixture()
        horse.pause(sandbox, 0)
        total = horse.resume(sandbox, 0).total_ns
        assert 100 <= total <= 200

    def test_ppsm_merge_step_constant(self):
        merge_costs = []
        for vcpus in (1, 36):
            _, horse, sandbox = make_fixture(
                config=HorseConfig.ppsm_only(), vcpus=vcpus
            )
            horse.pause(sandbox, 0)
            result = horse.resume(sandbox, 0)
            merge_costs.append(result.breakdown.phases[STEP_MERGE])
        assert merge_costs[0] == merge_costs[1]

    def test_coalesced_load_step_constant(self):
        load_costs = []
        for vcpus in (1, 36):
            _, horse, sandbox = make_fixture(
                config=HorseConfig.coalescing_only(), vcpus=vcpus
            )
            horse.pause(sandbox, 0)
            result = horse.resume(sandbox, 0)
            load_costs.append(result.breakdown.phases[STEP_LOAD])
        assert load_costs[0] == load_costs[1]

    def test_merge_threads_reported(self):
        _, horse, sandbox = make_fixture()
        horse.pause(sandbox, 0)
        result = horse.resume(sandbox, 0)
        assert result.merge_threads >= 1
        assert result.pointer_writes == 2 * result.merge_threads


class TestMixedPathLifecycles:
    def test_vanilla_resume_then_horse_pause_again(self):
        """Regression: a HORSE-paused sandbox resumed through the
        *vanilla* path keeps a stale ull_runqueue assignment; the next
        HORSE pause must detach it instead of double-assigning."""
        virt = firecracker_platform()
        horse = HorsePauseResume(virt.host, virt.policy, virt.costs)
        sandbox = Sandbox(vcpus=2, memory_mb=256, is_ull=True)
        virt.vanilla.place_initial(sandbox, 0)
        horse.pause(sandbox, 0)
        virt.vanilla.resume(sandbox, 0)  # slow-path resume
        horse.pause(sandbox, 0)          # must not raise
        result = horse.resume(sandbox, 0)
        assert result.total_ns < 200
        # exactly one live assignment throughout
        assert sum(horse.ull.assignment_counts().values()) == 0

    def test_vanilla_resume_after_horse_pause_places_on_general_queues(self):
        virt = firecracker_platform()
        horse = HorsePauseResume(virt.host, virt.policy, virt.costs)
        sandbox = Sandbox(vcpus=3, memory_mb=256, is_ull=True)
        virt.vanilla.place_initial(sandbox, 0)
        horse.pause(sandbox, 0)
        result = virt.vanilla.resume(sandbox, 0)
        ull_ids = {q.runqueue_id for q in virt.host.ull_runqueues()}
        assert not set(result.runqueue_ids) & ull_ids


class TestMultiSandboxInteraction:
    def test_pause_refreshes_other_sandboxes_precompute(self):
        """Regression: pausing a sandbox dequeues its vCPUs from the
        ull_runqueue; other paused sandboxes' arrayB must be rebuilt or
        their later merge splices after detached nodes (size drift)."""
        virt = firecracker_platform()
        horse = HorsePauseResume(virt.host, virt.policy, virt.costs)
        first = Sandbox(vcpus=2, memory_mb=256, is_ull=True)
        second = Sandbox(vcpus=2, memory_mb=256, is_ull=True)
        for sandbox in (first, second):
            virt.vanilla.place_initial(sandbox, 0)
            horse.pause(sandbox, 0)
        # first resumes onto the queue, then pauses again (dequeue!)
        horse.resume(first, 0)
        horse.pause(first, 0)
        # second's precompute must reflect the now-empty queue
        horse.resume(second, 0)
        queue = horse.ull.queue(horse.ull.queue_ids[0])
        assert len(queue) == 2
        assert not queue.invariant_violations()

    def test_second_sandbox_precompute_sees_first_resume(self):
        """Pausing two sandboxes against the same queue, then resuming
        one, must leave the other's precomputation consistent so its own
        resume still produces a sorted queue."""
        virt = firecracker_platform()
        horse = HorsePauseResume(virt.host, virt.policy, virt.costs)
        first = Sandbox(vcpus=3, memory_mb=256, is_ull=True)
        second = Sandbox(vcpus=3, memory_mb=256, is_ull=True)
        for sandbox in (first, second):
            virt.vanilla.place_initial(sandbox, 0)
            horse.pause(sandbox, 0)
        horse.resume(first, 0)
        horse.resume(second, 0)
        queue = horse.ull.queue(horse.ull.queue_ids[0])
        assert len(queue) == 6
        assert not queue.invariant_violations()
