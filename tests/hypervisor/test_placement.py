"""Multi-vCPU placement: successive picks equal repeated single scans.

``place_initial`` and the vanilla resume draw a sandbox's queues from
:meth:`Host.least_loaded_generals`, which picks from a heap for
placements of ``HEAP_PLACEMENT_PICKS`` vCPUs or more.  Each pick must
still be what ``least_loaded_general()`` returns after the enqueues
before it: the lowest ``(load, length, runqueue_id)`` over the general
queues, ties included.  1-36 vCPUs covers both the scan and the heap.

A host builds a general queue only when it is first used, so both
rules also have to treat every unbuilt queue as the empty, zero-load
queue it stands for: a lazy host must make the same picks as the same
host with every queue built up front.
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


# ----------------------------------------------------------------------
# Lazy host vs the same host with every queue built up front
# ----------------------------------------------------------------------
@st.composite
def scripts(draw):
    """A host shape and a sequence of placement-relevant steps.

    Forced ties mostly hit the low ids, where the lowest unbuilt queue
    competes with built queues at ``(0.0, 0)``.
    """
    spec = draw(st.sampled_from([EDGE_NODE, CLOUDLAB_R650]))
    general = spec.total_cores - 1
    queue_ids = st.one_of(
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=general - 1),
    )
    step = st.one_of(
        st.tuples(st.just("place"), st.integers(min_value=1, max_value=36)),
        st.tuples(st.just("pause"), st.integers(min_value=0, max_value=99)),
        st.tuples(st.just("resume"), st.integers(min_value=0, max_value=99)),
        st.tuples(st.just("tie"), queue_ids, LOADS, LENGTHS),
        st.tuples(st.just("advance"), st.sampled_from([250_000, 4_000_000])),
    )
    return spec, draw(st.lists(step, min_size=1, max_size=14))


def queue_state(host, core_id):
    """(contents, load, last load update, scan steps) of one queue; an
    unbuilt queue reads as the empty, zero-load queue it stands for."""
    rq = host.runqueues.get(core_id)
    if rq is None:
        return [], 0.0, 0, 0
    contents = [(vcpu.sandbox_id, vcpu.index) for vcpu in rq.entities]
    return contents, rq.load.value, rq.load.last_update_ns, rq.entities.scan_steps


class Twin:
    """One platform driven by the script; *eager* builds every queue."""

    def __init__(self, spec, eager):
        self.virt = firecracker_platform(spec=spec)
        if eager:
            self.virt.host.general_runqueues()
        self.running = []
        self.paused = []

    def step(self, step, now, serial):
        vanilla = self.virt.vanilla
        kind = step[0]
        if kind == "place":
            sandbox = Sandbox(vcpus=step[1], memory_mb=128, sandbox_id=f"sb{serial}")
            vanilla.place_initial(sandbox, now)
            self.running.append(sandbox)
            return [vcpu.runqueue_id for vcpu in sandbox.vcpus]
        if kind == "pause" and self.running:
            sandbox = self.running.pop(step[1] % len(self.running))
            self.paused.append(sandbox)
            return vanilla.pause(sandbox, now).dequeued_vcpus
        if kind == "resume" and self.paused:
            sandbox = self.paused.pop(step[1] % len(self.paused))
            self.running.append(sandbox)
            result = vanilla.resume(sandbox, now)
            return result.runqueue_ids, result.breakdown.phases
        if kind == "tie":
            _, core_id, load, length = step
            rq = self.virt.host.runqueue(core_id)
            for index in range(length):
                rq.entities.insert_sorted(
                    Vcpu(index=index, sandbox_id=f"filler-{serial}")
                )
            rq.load.value = load
        return None


class TestLazyQueuesEqualFullyBuilt:
    @given(case=scripts())
    @settings(max_examples=80, deadline=None)
    def test_same_picks_and_queues(self, case):
        spec, steps = case
        lazy, eager = Twin(spec, eager=False), Twin(spec, eager=True)
        now = 0
        for serial, step in enumerate(steps):
            if step[0] == "advance":
                now += step[1]
                continue
            assert lazy.step(step, now, serial) == eager.step(step, now, serial)
            for core_id in range(spec.total_cores):
                assert queue_state(lazy.virt.host, core_id) == queue_state(
                    eager.virt.host, core_id
                )
