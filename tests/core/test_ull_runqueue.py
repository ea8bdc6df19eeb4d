"""UllRunqueueManager: reservation, balancing, precompute freshness."""

import pytest

from repro.core.p2sm import P2SMState
from repro.core.ull_runqueue import UllAssignmentError, UllRunqueueManager
from repro.hypervisor.cpu import Host, HostSpec
from repro.hypervisor.sandbox import Sandbox
from repro.sim.units import microseconds, milliseconds


def make_host(reserved=2, cores=8):
    spec = HostSpec(
        name="test",
        sockets=1,
        cores_per_socket=cores,
        memory_mb=64 * 1024,
    )
    return Host(
        spec=spec,
        sort_key=lambda v: v.vruntime,
        default_timeslice_ns=milliseconds(5),
        ull_timeslice_ns=microseconds(1),
        reserved_ull_cores=reserved,
    )


class TestReservation:
    def test_reserved_queue_count(self):
        manager = UllRunqueueManager(make_host(reserved=2))
        assert len(manager.queue_ids) == 2

    def test_no_reserved_queues_rejected(self):
        with pytest.raises(UllAssignmentError):
            UllRunqueueManager(make_host(reserved=0))

    def test_reserved_queues_have_1us_timeslice(self):
        manager = UllRunqueueManager(make_host())
        for qid in manager.queue_ids:
            assert manager.queue(qid).timeslice_ns == microseconds(1)
            assert manager.queue(qid).reserved_for_ull

    def test_queue_lookup_rejects_general_queue(self):
        host = make_host()
        manager = UllRunqueueManager(host)
        general = host.general_runqueues()[0]
        with pytest.raises(UllAssignmentError):
            manager.queue(general.runqueue_id)


class TestAssignment:
    def test_assign_sets_sandbox_attribute(self):
        manager = UllRunqueueManager(make_host())
        sandbox = Sandbox(vcpus=1, memory_mb=128, is_ull=True)
        queue = manager.assign(sandbox)
        assert sandbox.assigned_ull_runqueue == queue.runqueue_id

    def test_double_assign_rejected(self):
        manager = UllRunqueueManager(make_host())
        sandbox = Sandbox(vcpus=1, memory_mb=128)
        manager.assign(sandbox)
        with pytest.raises(UllAssignmentError):
            manager.assign(sandbox)

    def test_balancing_spreads_by_assignment_count(self):
        """Paper §4.1.3: queue choice considers the number of paused
        sandboxes already associated with each ull_runqueue."""
        manager = UllRunqueueManager(make_host(reserved=2))
        boxes = [Sandbox(vcpus=1, memory_mb=128) for _ in range(4)]
        for box in boxes:
            manager.assign(box)
        counts = manager.assignment_counts()
        assert sorted(counts.values()) == [2, 2]

    def test_unassign_rebalances(self):
        manager = UllRunqueueManager(make_host(reserved=2))
        first = Sandbox(vcpus=1, memory_mb=128)
        manager.assign(first)
        manager.unassign(first)
        assert first.assigned_ull_runqueue is None
        assert sum(manager.assignment_counts().values()) == 0

    def test_unassign_unassigned_is_noop(self):
        manager = UllRunqueueManager(make_host())
        sandbox = Sandbox(vcpus=1, memory_mb=128)
        manager.unassign(sandbox)  # must not raise

    def test_assigned_to_lists_sandboxes(self):
        manager = UllRunqueueManager(make_host(reserved=1))
        sandbox = Sandbox(vcpus=1, memory_mb=128)
        queue = manager.assign(sandbox)
        assert manager.assigned_to(queue.runqueue_id) == [sandbox]


class TestPrecomputeFreshness:
    def test_on_queue_updated_refreshes_states(self):
        host = make_host(reserved=1)
        manager = UllRunqueueManager(host)
        queue = manager.queue(manager.queue_ids[0])
        sandbox = Sandbox(vcpus=2, memory_mb=128)
        manager.assign(sandbox)
        sandbox.p2sm_state = P2SMState(list(sandbox.vcpus), queue.entities)

        # Mutate the queue: the tied sandbox's arrayB must be rebuilt.
        other = Sandbox(vcpus=1, memory_mb=128)
        queue.entities.insert_sorted(other.vcpus[0])
        snapshot = manager.on_queue_updated(queue.runqueue_id)
        assert snapshot is not None
        assert snapshot.nodes == [queue.entities.head, *queue.entities.nodes()]
        # One full rebuild: arrayB (sentinel + 1 element) plus A's two.
        assert manager.refresh_entries_touched == 2 + 2
        assert manager.refresh_operations == 1
        # arrayB now mirrors the grown queue (sentinel + 1 element).
        assert len(sandbox.p2sm_state.array_b) == 2

    def test_refresh_skips_sandboxes_without_state(self):
        manager = UllRunqueueManager(make_host(reserved=1))
        sandbox = Sandbox(vcpus=1, memory_mb=128)
        queue = manager.assign(sandbox)
        assert manager.on_queue_updated(queue.runqueue_id) is None
        assert manager.refresh_operations == 0
        assert manager.refresh_entries_touched == 0
