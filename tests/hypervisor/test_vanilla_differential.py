"""The vanilla pause/resume path against a one-vCPU-at-a-time reference.

:class:`VanillaPauseResume` places a sandbox's vCPUs from
:meth:`Host.least_loaded_generals`, enqueues each with one run-queue
call and dequeues them grouped by queue.  The reference below does the
paper's steps the plain way: one :meth:`Host.least_loaded_general` scan,
one :meth:`RunQueue.enqueue_sorted` and one single-vCPU
:meth:`RunQueue.dequeue_all` per vCPU, with the per-vCPU costs summed in
the order the breakdown charges them.  Driven through the same random
vCPU shapes, keys and resume/pause sequences, the two must leave every
queue, load and counter identical (floats compared with ``==``) and
return the same results.

:meth:`QueueSnapshot.of` is compared with a naive walk of the list it
snapshots, including a list whose links a test has scrambled.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.linked_list import SortedLinkedList
from repro.core.p2sm import QueueSnapshot
from repro.hypervisor.cpu import CLOUDLAB_R650, EDGE_NODE
from repro.hypervisor.pause_resume import (
    STEP_FINALIZE,
    STEP_LOAD,
    STEP_LOCK,
    STEP_MERGE,
    STEP_PARSE,
    STEP_SANITY,
    PauseResult,
    ResumeResult,
)
from repro.hypervisor.platform import firecracker_platform, xen_platform
from repro.hypervisor.sandbox import Sandbox, SandboxState
from repro.hypervisor.vcpu import Vcpu, VcpuState
from repro.metrics.recorder import Breakdown

PLATFORMS = {"firecracker": firecracker_platform, "xen": xen_platform}

#: few distinct keys, so sorted inserts tie and scan past equals
KEYS = st.sampled_from([0.0, 5.0, 10.0, 2_500.0])


class Reference:
    """The vanilla steps for one vCPU at a time, on the same platform
    type as the path under test."""

    def __init__(self, virt):
        self.host = virt.host
        self.policy = virt.policy
        self.costs = virt.costs

    def resume(self, sandbox, now_ns):
        costs = self.costs
        breakdown = Breakdown()
        breakdown.add(STEP_PARSE, round(costs.resume_parse_ns))
        breakdown.add(STEP_LOCK, round(costs.resume_lock_ns))
        sandbox.require_state(SandboxState.PAUSED)
        sandbox.transition(SandboxState.RESUMING)
        breakdown.add(STEP_SANITY, round(costs.resume_sanity_ns))
        merge_ns = load_ns = 0.0
        runqueue_ids = []
        for position, vcpu in enumerate(sandbox.vcpus):
            runqueue = self.host.least_loaded_general()
            self.policy.on_enqueue(vcpu)
            steps = runqueue.enqueue_sorted(vcpu, now_ns)
            if position == 0:
                merge_ns += costs.merge_first_vcpu_ns
                load_ns += costs.load_update_first_ns
            else:
                merge_ns += costs.merge_warm_vcpu_ns
                load_ns += costs.load_update_warm_ns
            merge_ns += costs.merge_scan_step_ns * steps
            runqueue_ids.append(runqueue.runqueue_id)
        breakdown.add(STEP_MERGE, round(merge_ns))
        breakdown.add(STEP_LOAD, round(load_ns))
        sandbox.transition(SandboxState.RUNNING)
        breakdown.add(STEP_FINALIZE, round(costs.resume_finalize_ns))
        return ResumeResult(sandbox.sandbox_id, breakdown, runqueue_ids)

    def pause(self, sandbox, now_ns):
        sandbox.require_state(SandboxState.RUNNING)
        dequeued = 0
        for vcpu in sandbox.vcpus:
            if vcpu.runqueue_id is not None:
                runqueue = self.host.runqueues[vcpu.runqueue_id]
                dequeued += runqueue.dequeue_all([vcpu], now_ns)
            vcpu.state = VcpuState.PAUSED
            vcpu.runqueue_id = None
        sandbox.transition(SandboxState.PAUSED)
        duration = (
            self.costs.pause_fixed_ns + self.costs.pause_dequeue_vcpu_ns * dequeued
        )
        return PauseResult(sandbox.sandbox_id, round(duration), dequeued)


def host_state(virt):
    """Everything either path may touch, per built queue, plus the
    policy's enqueue count."""
    queues = {}
    for core_id, rq in sorted(virt.host.runqueues.items()):
        load = rq.load
        queues[core_id] = (
            [(vcpu.sandbox_id, vcpu.index) for vcpu in rq.entities],
            rq.entities.scan_steps,
            load.value,
            load.last_update_ns,
            load.folds_iterated,
            rq.sorted_inserts,
            rq.insert_scan_steps,
            rq.dequeue_count,
        )
    return queues, virt.host.last_len[0], virt.policy.enqueues


def vcpu_state(sandboxes):
    return [
        (sandbox.state, [(v.state, v.runqueue_id, v.credit, v.vruntime)
                         for v in sandbox.vcpus])
        for sandbox in sandboxes
    ]


@st.composite
def scenarios(draw):
    platform = draw(st.sampled_from(sorted(PLATFORMS)))
    spec = draw(st.sampled_from([EDGE_NODE, CLOUDLAB_R650]))
    shapes = draw(st.lists(
        st.lists(st.tuples(KEYS, KEYS), min_size=1, max_size=36),
        min_size=1, max_size=5,
    ))
    step = st.one_of(
        st.tuples(st.just("resume"), st.integers(0, 99)),
        st.tuples(st.just("pause"), st.integers(0, 99)),
        st.tuples(st.just("rekey"), st.integers(0, 99), KEYS),
        st.tuples(st.just("advance"),
                  st.sampled_from([0, 250_000, 1_000_000, 4_000_000])),
    )
    return platform, spec, shapes, draw(st.lists(step, max_size=16))


class Twin:
    """One platform, its sandboxes placed and every other one paused."""

    def __init__(self, platform, spec, shapes, reference):
        self.virt = PLATFORMS[platform](spec=spec)
        self.path = Reference(self.virt) if reference else self.virt.vanilla
        self.sandboxes = []
        for number, keys in enumerate(shapes):
            sandbox = Sandbox(vcpus=len(keys), memory_mb=128,
                              sandbox_id=f"sb{number}")
            for vcpu, (credit, vruntime) in zip(sandbox.vcpus, keys):
                vcpu.credit = credit
                vcpu.vruntime = vruntime
            self.virt.vanilla.place_initial(sandbox, 0)
            if number % 2:
                self.path.pause(sandbox, 0)
            self.sandboxes.append(sandbox)

    def pick(self, state, index):
        """The *index*-th sandbox (mod count) in *state*, or None."""
        chosen = [s for s in self.sandboxes if s.state is state]
        return chosen[index % len(chosen)] if chosen else None


@given(case=scenarios())
@settings(max_examples=80, deadline=None)
def test_vanilla_path_equals_one_vcpu_at_a_time(case):
    platform, spec, shapes, steps = case
    fast = Twin(platform, spec, shapes, reference=False)
    reference = Twin(platform, spec, shapes, reference=True)
    assert host_state(fast.virt) == host_state(reference.virt)
    now = 0
    for step in steps:
        kind = step[0]
        if kind == "advance":
            now += step[1]
            continue
        if kind == "rekey":
            # A paused sandbox's keys move while it is off every queue.
            for twin in (fast, reference):
                sandbox = twin.pick(SandboxState.PAUSED, step[1])
                if sandbox is not None:
                    for vcpu in sandbox.vcpus:
                        vcpu.credit = vcpu.vruntime = step[2]
            continue
        state = SandboxState.PAUSED if kind == "resume" else SandboxState.RUNNING
        got = fast.pick(state, step[1])
        want = reference.pick(state, step[1])
        assert (got is None) == (want is None)
        if got is None:
            continue
        assert got.sandbox_id == want.sandbox_id
        got_result = getattr(fast.path, kind)(got, now)
        want_result = getattr(reference.path, kind)(want, now)
        if kind == "resume":
            assert got_result.breakdown.phases == want_result.breakdown.phases
            assert list(got_result.breakdown.phases) == list(
                want_result.breakdown.phases
            )
            assert got_result.runqueue_ids == want_result.runqueue_ids
        else:
            assert got_result == want_result
        assert host_state(fast.virt) == host_state(reference.virt)
        assert vcpu_state(fast.sandboxes) == vcpu_state(reference.sandboxes)
    for rq in fast.virt.host.built_runqueues():
        assert not rq.invariant_violations()


# ----------------------------------------------------------------------
# QueueSnapshot.of against a naive walk
# ----------------------------------------------------------------------
def naive_snapshot(target):
    nodes = [target.head]
    node = target.head.next
    while node is not None:
        nodes.append(node)
        node = node.next
    keys = [target.key(node.value) for node in nodes[1:]]
    ordered = all(keys[i] <= keys[i + 1] for i in range(len(keys) - 1))
    return nodes, keys, ordered


def assert_same_snapshot(target):
    snapshot = QueueSnapshot.of(target)
    nodes, keys, ordered = naive_snapshot(target)
    assert len(snapshot.nodes) == len(nodes)
    assert all(a is b for a, b in zip(snapshot.nodes, nodes))
    assert snapshot.keys == keys
    assert snapshot.ordered is ordered
    return snapshot


def filled(keys):
    target = SortedLinkedList(key=lambda vcpu: vcpu.vruntime)
    for index, key in enumerate(keys):
        target.insert_sorted(Vcpu(index, "s", vruntime=key))
    return target


@given(keys=st.lists(KEYS, max_size=40))
@settings(max_examples=60, deadline=None)
def test_snapshot_equals_naive_walk(keys):
    snapshot = assert_same_snapshot(filled(keys))
    assert snapshot.ordered is True


@given(
    keys=st.lists(st.floats(0.0, 100.0), min_size=2, max_size=40, unique=True),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=60, deadline=None)
def test_snapshot_of_scrambled_list_is_unordered(keys, seed):
    target = filled(keys)
    nodes = list(target.nodes())
    order = nodes[:]
    while order == nodes:  # distinct keys: only the sorted order is sorted
        random.Random(seed).shuffle(order)
        seed += 1
    previous = target.head
    for node in order:
        previous.next = node
        previous = node
    previous.next = None
    snapshot = assert_same_snapshot(target)
    assert snapshot.ordered is False
