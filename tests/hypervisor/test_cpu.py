"""Host model: topology, reserved queues, memory accounting."""

import pytest

from repro.hypervisor.cpu import CLOUDLAB_R650, Host, HostSpec
from repro.sim.units import microseconds, milliseconds


def make_host(reserved=1, **overrides):
    spec_kwargs = dict(
        name="t",
        sockets=2,
        cores_per_socket=4,
        memory_mb=16 * 1024,
    )
    spec_kwargs.update(overrides)
    return Host(
        spec=HostSpec(**spec_kwargs),
        sort_key=lambda v: v.vruntime,
        default_timeslice_ns=milliseconds(5),
        ull_timeslice_ns=microseconds(1),
        reserved_ull_cores=reserved,
    )


class TestHostSpec:
    def test_cloudlab_r650_matches_paper(self):
        assert CLOUDLAB_R650.sockets == 2
        assert CLOUDLAB_R650.cores_per_socket == 36
        assert CLOUDLAB_R650.total_cores == 72
        assert CLOUDLAB_R650.memory_mb == 128 * 1024
        assert not CLOUDLAB_R650.hyperthreading

    def test_hyperthreading_doubles_cores(self):
        spec = HostSpec("t", 1, 4, 1024, hyperthreading=True)
        assert spec.total_cores == 8

    def test_bad_topology_rejected(self):
        with pytest.raises(ValueError):
            HostSpec("t", 0, 4, 1024)

    def test_bad_memory_rejected(self):
        with pytest.raises(ValueError):
            HostSpec("t", 1, 4, 0)


class TestTopology:
    def test_one_runqueue_per_core(self):
        host = make_host(reserved=2)
        for core_id in range(host.spec.total_cores):
            queue = host.runqueue(core_id)
            assert queue.runqueue_id == queue.core_id == core_id
            assert queue.reserved_for_ull == (core_id >= 6)
            assert host.runqueue(core_id) is queue
        assert sorted(host.runqueues) == list(range(host.spec.total_cores))

    def test_no_such_core(self):
        host = make_host()
        with pytest.raises(KeyError):
            host.runqueue(host.spec.total_cores)
        with pytest.raises(KeyError):
            host.runqueue(-1)

    def test_general_queues_built_on_first_use(self):
        host = make_host(reserved=2)
        assert sorted(host.runqueues) == [6, 7]
        host.runqueue(3)
        assert sorted(host.runqueues) == [3, 6, 7]
        assert [q.runqueue_id for q in host.built_runqueues()] == [3, 6, 7]
        assert [q.runqueue_id for q in host.general_runqueues()] == list(range(6))
        assert [q.runqueue_id for q in host.built_runqueues()] == list(range(8))

    def test_reserved_queues_are_last_cores(self):
        host = make_host(reserved=2)
        ull_ids = sorted(q.runqueue_id for q in host.ull_runqueues())
        assert ull_ids == [6, 7]

    def test_general_plus_ull_partition(self):
        host = make_host(reserved=3)
        assert len(host.general_runqueues()) + len(host.ull_runqueues()) == 8

    def test_cannot_reserve_all_cores(self):
        with pytest.raises(ValueError):
            make_host(reserved=8)

    def test_negative_reservation_rejected(self):
        with pytest.raises(ValueError):
            make_host(reserved=-1)


class TestPlacement:
    def test_least_loaded_prefers_lower_load(self):
        host = make_host()
        target = host.general_runqueues()[3]
        for queue in host.general_runqueues():
            if queue is not target:
                queue.load.value = 100.0
        assert host.least_loaded_general() is target

    def test_least_loaded_ties_break_by_id(self):
        host = make_host()
        assert host.least_loaded_general().runqueue_id == 0


class TestMemory:
    def test_allocate_and_release(self):
        host = make_host()
        host.allocate_memory(1024)
        assert host.memory_used_mb == 1024
        host.release_memory(1024)
        assert host.memory_used_mb == 0

    def test_overallocation_raises(self):
        host = make_host()
        with pytest.raises(MemoryError):
            host.allocate_memory(host.spec.memory_mb + 1)

    def test_over_release_raises(self):
        host = make_host()
        with pytest.raises(ValueError):
            host.release_memory(1)

    def test_negative_allocation_rejected(self):
        with pytest.raises(ValueError):
            make_host().allocate_memory(-1)


class TestEdgeNodePreset:
    def test_edge_node_shape(self):
        from repro.hypervisor.cpu import EDGE_NODE

        assert EDGE_NODE.total_cores == 8
        assert EDGE_NODE.memory_mb == 32 * 1024

    def test_platform_on_edge_node_end_to_end(self):
        from repro.core import HorsePauseResume
        from repro.hypervisor.cpu import EDGE_NODE
        from repro.hypervisor.platform import firecracker_platform
        from repro.hypervisor.sandbox import Sandbox

        virt = firecracker_platform(spec=EDGE_NODE)
        horse = HorsePauseResume(virt.host, virt.policy, virt.costs)
        sandbox = Sandbox(vcpus=4, memory_mb=512, is_ull=True)
        virt.vanilla.place_initial(sandbox, 0)
        horse.pause(sandbox, 0)
        result = horse.resume(sandbox, 0)
        assert result.total_ns < 200  # fast path works on small hosts
