"""Multi-vCPU placement: successive picks equal repeated single scans.

``place_initial`` and the vanilla resume draw a sandbox's queues from
:meth:`Host.least_loaded_generals`, which picks from a heap for
placements of ``HEAP_PLACEMENT_PICKS`` vCPUs or more.  Each pick must
still be what ``least_loaded_general()`` returns after the enqueues
before it: the lowest ``(load, length, runqueue_id)`` over the general
queues, ties included.  1-36 vCPUs covers both the scan and the heap.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hypervisor.cpu import CLOUDLAB_R650, EDGE_NODE
from repro.hypervisor.platform import firecracker_platform
from repro.hypervisor.sandbox import Sandbox
from repro.hypervisor.vcpu import Vcpu

#: few distinct values, so (load, length) ties are common
LOADS = st.sampled_from([0.0, 0.25, 1.0])
LENGTHS = st.integers(min_value=0, max_value=2)


@st.composite
def placements(draw):
    spec = draw(st.sampled_from([EDGE_NODE, CLOUDLAB_R650]))
    general = spec.total_cores - 1
    queues = draw(
        st.lists(st.tuples(LOADS, LENGTHS), min_size=general, max_size=general)
    )
    vcpus = draw(st.integers(min_value=1, max_value=36))
    now = draw(st.sampled_from([0, 1_000_000]))
    return spec, queues, vcpus, now


def build(spec, queues, vcpus, paused):
    """A platform whose general queues hold the drawn loads and lengths,
    and one sandbox of *vcpus* vCPUs (paused, or not yet placed)."""
    virt = firecracker_platform(spec=spec)
    sandbox = Sandbox(vcpus=vcpus, memory_mb=128)
    if paused:
        virt.vanilla.place_initial(sandbox, 0)
        virt.vanilla.pause(sandbox, 0)
    for rq, (load, length) in zip(virt.host.general_runqueues(), queues):
        for index in range(length):
            rq.entities.insert_sorted(
                Vcpu(index=index, sandbox_id=f"filler-{rq.runqueue_id}")
            )
        rq.load.value = load
    return virt, sandbox


def loads(virt):
    return [(rq.load.value, len(rq)) for rq in virt.host.general_runqueues()]


class TestSuccessivePicksEqualScans:
    @given(case=placements())
    @settings(max_examples=60, deadline=None)
    def test_resume(self, case):
        spec, queues, vcpus, now = case
        virt, sandbox = build(spec, queues, vcpus, paused=True)
        picked = virt.vanilla.resume(sandbox, now).runqueue_ids

        oracle, twin = build(spec, queues, vcpus, paused=True)
        expected = []
        for vcpu in twin.vcpus:
            rq = oracle.host.least_loaded_general()
            oracle.policy.on_enqueue(vcpu)
            rq.enqueue_sorted_without_load(vcpu)
            rq.load.enqueue_entity(now, vcpu.weight)
            expected.append(rq.runqueue_id)
        assert picked == expected
        assert loads(virt) == loads(oracle)

    @given(case=placements())
    @settings(max_examples=60, deadline=None)
    def test_place_initial(self, case):
        spec, queues, vcpus, now = case
        virt, sandbox = build(spec, queues, vcpus, paused=False)
        virt.vanilla.place_initial(sandbox, now)
        picked = [vcpu.runqueue_id for vcpu in sandbox.vcpus]

        oracle, twin = build(spec, queues, vcpus, paused=False)
        expected = []
        for vcpu in twin.vcpus:
            rq = oracle.host.least_loaded_general()
            oracle.policy.on_enqueue(vcpu)
            rq.enqueue_sorted(vcpu, now)
            expected.append(rq.runqueue_id)
        assert picked == expected
        assert loads(virt) == loads(oracle)
