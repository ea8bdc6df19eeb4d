"""RunQueue: sorted enqueue, load folds, invariants."""

import pytest

from repro.hypervisor.runqueue import RunQueue
from repro.hypervisor.vcpu import Vcpu, VcpuState
from repro.sim.units import microseconds, milliseconds


def make_queue(reserved=False):
    return RunQueue(
        runqueue_id=7,
        sort_key=lambda v: v.vruntime,
        core_id=7,
        timeslice_ns=microseconds(1) if reserved else milliseconds(5),
        reserved_for_ull=reserved,
    )


def make_vcpu(vruntime=0.0, index=0):
    vcpu = Vcpu(index=index, sandbox_id="sb-test")
    vcpu.vruntime = vruntime
    return vcpu


class TestEnqueue:
    def test_enqueue_marks_runnable_with_queue_id(self):
        queue = make_queue()
        vcpu = make_vcpu()
        queue.enqueue_sorted(vcpu, 0)
        assert vcpu.state is VcpuState.RUNNABLE
        assert vcpu.runqueue_id == 7

    def test_enqueue_keeps_sorted_order(self):
        queue = make_queue()
        for vruntime in (30.0, 10.0, 20.0):
            queue.enqueue_sorted(make_vcpu(vruntime), 0)
        assert [v.vruntime for v in queue.members()] == [10.0, 20.0, 30.0]

    def test_enqueue_updates_load(self):
        queue = make_queue()
        queue.enqueue_sorted(make_vcpu(), 0)
        assert queue.load.value > 0

    def test_enqueue_without_load_skips_fold(self):
        queue = make_queue()
        queue.enqueue_sorted_without_load(make_vcpu())
        assert queue.load.value == 0.0
        assert len(queue) == 1

    def test_enqueue_returns_scan_steps(self):
        queue = make_queue()
        assert queue.enqueue_sorted(make_vcpu(1.0), 0) == 0
        assert queue.enqueue_sorted(make_vcpu(2.0), 0) == 1

    def test_enqueue_count(self):
        # Both sorted-insert entry points count once each.
        queue = make_queue()
        queue.enqueue_sorted(make_vcpu(), 0)
        queue.enqueue_sorted_without_load(make_vcpu(index=1))
        assert queue.sorted_inserts == 2

    def test_sorted_inserts_count_hops_and_record_the_length(self):
        queue = make_queue()
        for vruntime in (1.0, 2.0, 3.0):
            queue.enqueue_sorted(make_vcpu(vruntime), 0)
        assert queue.sorted_inserts == 3
        assert queue.insert_scan_steps == 0 + 1 + 2
        assert queue.last_len == [3]


class TestDequeue:
    def test_dequeue_all_unlinks_and_leaves_vcpu_state(self):
        queue = make_queue()
        vcpu = make_vcpu()
        queue.enqueue_sorted(vcpu, 0)
        assert queue.dequeue_all([vcpu], 0) == 1
        assert len(queue) == 0
        assert queue.dequeue_count == 1
        # Pausing marks the vCPU; the queue only unlinks it.
        assert vcpu.state is VcpuState.RUNNABLE
        assert vcpu.runqueue_id == 7

    def test_dequeue_missing_returns_false(self):
        queue = make_queue()
        queue.enqueue_sorted(make_vcpu(), 0)
        load = queue.load.value
        assert queue.dequeue_all([make_vcpu()], 0) == 0
        assert queue.dequeue_all([make_vcpu(), make_vcpu(index=1)], 0) == 0
        assert len(queue) == 1
        assert queue.load.value == load

    def test_dequeue_folds_load_out(self):
        queue = make_queue()
        vcpu = make_vcpu()
        queue.enqueue_sorted(vcpu, 0)
        queue.dequeue_all([vcpu], 0)
        assert queue.load.value == pytest.approx(0.0, abs=1e-9)


class TestScheduling:
    def test_pop_next_removes_head(self):
        queue = make_queue()
        queue.enqueue_sorted(make_vcpu(5.0), 0)
        queue.enqueue_sorted(make_vcpu(1.0, index=1), 0)
        assert queue.pop_next().vruntime == 1.0
        assert len(queue) == 1

    def test_reserved_queue_has_1us_timeslice(self):
        queue = make_queue(reserved=True)
        assert queue.timeslice_ns == microseconds(1)
        assert queue.reserved_for_ull


class TestInvariants:
    def test_check_invariants_passes_for_consistent_queue(self):
        queue = make_queue()
        for index, vruntime in enumerate((3.0, 1.0, 2.0)):
            queue.enqueue_sorted(make_vcpu(vruntime, index), 0)
        assert not queue.invariant_violations()

    def test_check_invariants_detects_foreign_queue_id(self):
        queue = make_queue()
        vcpu = make_vcpu()
        queue.enqueue_sorted(vcpu, 0)
        vcpu.runqueue_id = 99
        with pytest.raises(AssertionError):
            assert not queue.invariant_violations()

    def test_nonpositive_timeslice_rejected(self):
        with pytest.raises(ValueError):
            RunQueue(1, lambda v: 0.0, 1, timeslice_ns=0)
