"""Core dispatchers: timeslicing, rotation, priority preemption."""

import pytest

from repro.hypervisor.dispatch import CoreDispatcher, HostDispatcher, WorkItem
from repro.hypervisor.platform import firecracker_platform
from repro.hypervisor.vcpu import Vcpu
from repro.sim.engine import Engine
from repro.sim.units import microseconds, milliseconds


def make_setup(reserved_core=False):
    engine = Engine()
    virt = firecracker_platform()
    runqueue = (
        virt.host.ull_runqueues()[0]
        if reserved_core
        else virt.host.general_runqueues()[0]
    )
    dispatcher = CoreDispatcher(engine, runqueue, virt.policy, virt.costs)
    # Every quantum ends in an engine event: assert queue integrity
    # (sortedness, size counter, link structure) after each one.
    def check(_event):
        assert not runqueue.invariant_violations()

    engine.add_watcher(check)
    return engine, virt, dispatcher


def make_host_setup():
    engine = Engine()
    virt = firecracker_platform()
    host_dispatcher = HostDispatcher(engine, virt.host, virt.policy, virt.costs)

    def check_all(_event):
        for runqueue in virt.host.runqueues.values():
            assert not runqueue.invariant_violations()

    engine.add_watcher(check_all)
    return engine, virt, host_dispatcher


def make_item(work_ns, index=0, done=None):
    vcpu = Vcpu(index=index, sandbox_id=f"sb-{index}")
    return WorkItem(
        vcpu=vcpu,
        remaining_ns=work_ns,
        on_complete=done,
    )


class TestSingleItem:
    def test_completes_after_exact_work(self):
        engine, _, dispatcher = make_setup()
        finished = []
        dispatcher.submit(make_item(microseconds(10), done=finished.append))
        engine.run()
        assert len(finished) == 1
        assert finished[0].completed_at == microseconds(10)
        assert finished[0].remaining_ns == 0

    def test_work_longer_than_slice_rotates(self):
        engine, _, dispatcher = make_setup()
        # 12 ms of work on a 5 ms quantum: 3 slices, 2 rotations.
        dispatcher.submit(make_item(milliseconds(12)))
        engine.run()
        assert engine.events_executed == 3
        assert len(dispatcher.completed) == 1
        assert dispatcher.completed[0].completed_at == milliseconds(12)

    def test_nonpositive_work_rejected(self):
        with pytest.raises(ValueError):
            make_item(0)

    def test_double_submit_same_vcpu_rejected(self):
        engine, _, dispatcher = make_setup()
        vcpu = Vcpu(index=0, sandbox_id="sb")
        dispatcher.submit(WorkItem(vcpu=vcpu, remaining_ns=1000))
        with pytest.raises(ValueError):
            dispatcher.submit(WorkItem(vcpu=vcpu, remaining_ns=1000))


class TestInterleaving:
    def test_two_items_share_the_core(self):
        engine, _, dispatcher = make_setup()
        order = []
        dispatcher.submit(
            make_item(milliseconds(10), index=0, done=lambda i: order.append(0))
        )
        dispatcher.submit(
            make_item(milliseconds(10), index=1, done=lambda i: order.append(1))
        )
        engine.run()
        assert sorted(order) == [0, 1]
        # Total elapsed = sum of work (single core).
        assert engine.now == milliseconds(20)

    def test_completion_respects_cfs_fairness(self):
        """A short item submitted behind a long one still finishes first
        once the long item's vruntime exceeds it (rotation)."""
        engine, _, dispatcher = make_setup()
        order = []
        dispatcher.submit(
            make_item(milliseconds(50), index=0, done=lambda i: order.append("long"))
        )
        dispatcher.submit(
            make_item(milliseconds(6), index=1, done=lambda i: order.append("short"))
        )
        engine.run()
        assert order[0] == "short"

    def test_ull_core_uses_1us_timeslice(self):
        engine, _, dispatcher = make_setup(reserved_core=True)
        # 10 us of work -> at least 10 slices (9 rotations) at a 1 us
        # quantum.
        dispatcher.submit(make_item(microseconds(10)))
        engine.run()
        assert engine.events_executed >= 10

    def test_pending_counts(self):
        engine, _, dispatcher = make_setup()
        dispatcher.submit(make_item(1000, index=0))
        dispatcher.submit(make_item(1000, index=1))
        assert dispatcher.pending == 2
        engine.run()
        assert dispatcher.pending == 0


class TestPreemption:
    def test_preempt_idle_core_costs_nothing(self):
        engine, _, dispatcher = make_setup()
        assert dispatcher.preempt(1000) == 0
        assert dispatcher.preemptions == 0

    def test_preempt_delays_victim(self):
        engine, virt, dispatcher = make_setup()
        finished = []
        dispatcher.submit(make_item(microseconds(10), done=finished.append))
        switch = 2 * round(virt.costs.context_switch_ns)

        def strike():
            delay = dispatcher.preempt(microseconds(2))
            assert delay == microseconds(2) + switch

        engine.schedule_at(microseconds(4), strike)
        engine.run()
        victim = finished[0]
        assert victim.preempted_ns == microseconds(2) + switch
        assert victim.completed_at == microseconds(10) + victim.preempted_ns
        assert dispatcher.preemptions == 1

    def test_preempted_victim_resumes_head_of_line(self):
        engine, _, dispatcher = make_setup()
        order = []
        dispatcher.submit(
            make_item(milliseconds(2), index=0, done=lambda i: order.append("victim"))
        )
        dispatcher.submit(
            make_item(milliseconds(2), index=1, done=lambda i: order.append("waiter"))
        )
        engine.schedule_at(milliseconds(1), lambda: dispatcher.preempt(1000))
        engine.run()
        assert order == ["victim", "waiter"]

    def test_bad_preempt_duration_rejected(self):
        _, _, dispatcher = make_setup()
        with pytest.raises(ValueError):
            dispatcher.preempt(0)

    def test_multiple_preemptions_accumulate(self):
        engine, virt, dispatcher = make_setup()
        finished = []
        dispatcher.submit(make_item(milliseconds(1), done=finished.append))
        engine.schedule_at(microseconds(100), lambda: dispatcher.preempt(1000))
        engine.schedule_at(microseconds(300), lambda: dispatcher.preempt(1000))
        engine.run()
        switch = 2 * round(virt.costs.context_switch_ns)
        assert finished[0].preempted_ns == 2 * (1000 + switch)


class TestHostDispatcher:
    def test_one_dispatcher_per_core(self):
        _, virt, host_dispatcher = make_host_setup()
        assert len(host_dispatcher.cores) == virt.host.spec.total_cores

    def test_least_busy_placement_spreads(self):
        _, _, host_dispatcher = make_host_setup()
        used = set()
        for index in range(6):
            dispatcher = host_dispatcher.submit_to_least_busy(
                make_item(milliseconds(1), index=index)
            )
            used.add(dispatcher.runqueue.core_id)
        assert len(used) == 6

    def test_parallel_cores_finish_concurrently(self):
        engine, _, host_dispatcher = make_host_setup()
        for index in range(4):
            host_dispatcher.submit_to_least_busy(
                make_item(milliseconds(3), index=index)
            )
        engine.run()
        assert sum(len(d.completed) for d in host_dispatcher.cores.values()) == 4
        assert engine.now == milliseconds(3)  # ran in parallel

    def test_unknown_core_raises(self):
        _, _, host_dispatcher = make_host_setup()
        with pytest.raises(KeyError):
            host_dispatcher.core(9999)


class TestWatcherCoverage:
    def test_integrity_watcher_actually_fires(self):
        """The per-event invariant watcher must see every quantum —
        otherwise the integrity assertions above are vacuous."""
        engine, _, dispatcher = make_setup()
        seen = []
        engine.add_watcher(seen.append)
        dispatcher.submit(make_item(milliseconds(12)))
        engine.run()
        # 12 ms on a 5 ms quantum: at least 3 slice events observed.
        assert len(seen) >= 3

    def test_corrupted_queue_is_caught_at_the_next_event(self):
        """Mutation check: break the queue mid-run and the watcher
        installed by make_setup raises at the very next event."""
        engine, _, dispatcher = make_setup()
        dispatcher.submit(make_item(milliseconds(12), index=0))
        dispatcher.submit(make_item(milliseconds(12), index=1))

        def corrupt():
            dispatcher.runqueue.entities._size += 1

        engine.schedule_at(milliseconds(1), corrupt)
        with pytest.raises(AssertionError, match="size counter"):
            engine.run()
