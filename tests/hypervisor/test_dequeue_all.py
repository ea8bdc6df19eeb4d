"""Batched dequeue: one walk per queue equals one removal per vCPU.

``RunQueue.dequeue_all`` unlinks all of a sandbox's vCPUs on a queue
in one walk, then decays the load once and folds each removed vCPU out
in the order given.  The oracle here is the per-vCPU sequence it
replaced — ``SortedLinkedList.remove`` then a decay and one floored
subtraction, each counted — run on an identical copy of the same
queues.  The two must agree on list order, sizes, counters, vCPU state
and the load to the last bit.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.coalesce import ulps_apart
from repro.hypervisor.load_tracking import DECAY_FACTOR, PELT_PERIOD_NS
from repro.hypervisor.runqueue import RunQueue
from repro.hypervisor.scheduler import CfsPolicy, Credit2Policy
from repro.hypervisor.vcpu import Vcpu

POLICIES = [CfsPolicy(), Credit2Policy()]

#: keys from a small range so equal keys are common
KEYS = st.integers(min_value=0, max_value=6).map(float)
WEIGHTS = st.sampled_from([256.0, 1024.0, 1536.0, 3.5, 1e6])


def oracle_dequeue(queue, vcpus, now_ns):
    """The pre-batching pause: a removal scan and a PELT fold per vCPU."""
    removed = 0
    for vcpu in vcpus:
        if queue.entities.remove(vcpu):
            load = queue.load
            load.decay_to(now_ns)
            load.value = max(0.0, load.value - vcpu.weight * (1.0 - DECAY_FACTOR))
            load.updates_applied += 1
            queue.dequeue_count += 1
            removed += 1
    return removed


@st.composite
def worlds(draw):
    """Queues of keyed vCPUs, enqueued at increasing instants, and the
    vCPUs of one sandbox: some on the queues, some on none."""
    queues = draw(
        st.lists(
            st.lists(st.tuples(KEYS, WEIGHTS), max_size=8), min_size=1, max_size=4
        )
    )
    spare = draw(st.lists(st.tuples(KEYS, WEIGHTS), max_size=3))
    total = sum(len(members) for members in queues) + len(spare)
    picks = draw(
        st.lists(
            st.integers(min_value=0, max_value=max(total - 1, 0)),
            max_size=12 if total else 0,
        )
    )
    gaps = draw(
        st.lists(
            st.integers(min_value=0, max_value=3 * PELT_PERIOD_NS),
            min_size=total + 1,
            max_size=total + 1,
        )
    )
    return queues, spare, picks, gaps


def build(policy, queues, spare, gaps):
    """Fresh run queues and vCPUs from a drawn world; returns the queues,
    every vCPU (queued first, in order, then the spares) and the clock."""
    runqueues = []
    vcpus = []
    now = 0
    step = iter(gaps)
    for queue_id, members in enumerate(queues):
        queue = RunQueue(
            runqueue_id=queue_id, sort_key=policy.sort_key, core_id=queue_id,
            timeslice_ns=policy.default_timeslice_ns(),
        )
        for key, weight in members:
            vcpu = Vcpu(index=len(vcpus), sandbox_id="sb", weight=weight)
            vcpu.vruntime = key
            vcpu.credit = -key
            now += next(step)
            queue.enqueue_sorted(vcpu, now)
            vcpus.append(vcpu)
        runqueues.append(queue)
    for key, weight in spare:
        vcpu = Vcpu(index=len(vcpus), sandbox_id="sb", weight=weight)
        vcpu.vruntime = key
        vcpu.credit = -key
        vcpus.append(vcpu)
    return runqueues, vcpus, now + next(step)


def observe(runqueues, vcpus):
    """Everything the two paths must agree on, positions by vCPU index."""
    return (
        [[vcpu.index for vcpu in queue.entities] for queue in runqueues],
        [queue.entities._size for queue in runqueues],
        [queue.load.updates_applied for queue in runqueues],
        [queue.dequeue_count for queue in runqueues],
        [queue.load.last_update_ns for queue in runqueues],
        [(vcpu.state, vcpu.runqueue_id) for vcpu in vcpus],
    )


@pytest.mark.parametrize("offer", ["whole-sandbox", "own-vcpus"])
@pytest.mark.parametrize("policy", POLICIES, ids=["cfs", "credit2"])
@given(world=worlds())
@settings(max_examples=150, deadline=None)
def test_dequeue_all_matches_per_vcpu_removal(policy, offer, world):
    queues, spare, picks, gaps = world
    batched, batched_vcpus, now = build(policy, queues, spare, gaps)
    oracle, oracle_vcpus, _ = build(policy, queues, spare, gaps)
    chosen = list(dict.fromkeys(picks))  # a sandbox holds each vCPU once

    # Offered the whole sandbox, a queue sees vCPUs on other queues and
    # on none as well as its own; offered its own (the pause groups the
    # sandbox by queue), it sees exactly the vCPUs on it.
    for queue_id, (batched_queue, oracle_queue) in enumerate(zip(batched, oracle)):
        offered = [
            i for i in chosen
            if offer == "whole-sandbox"
            or batched_vcpus[i].runqueue_id == queue_id
        ]
        if not offered:
            continue
        got = batched_queue.dequeue_all([batched_vcpus[i] for i in offered], now)
        want = oracle_dequeue(oracle_queue, [oracle_vcpus[i] for i in offered], now)
        assert got == want
        assert ulps_apart(batched_queue.load.value, oracle_queue.load.value) == 0
    assert observe(batched, batched_vcpus) == observe(oracle, oracle_vcpus)
    for queue in batched:
        assert not queue.invariant_violations()


@pytest.mark.parametrize("policy", POLICIES, ids=["cfs", "credit2"])
def test_equal_keys_remove_only_the_named_vcpus(policy):
    queue = RunQueue(
        runqueue_id=0, sort_key=policy.sort_key, core_id=0,
        timeslice_ns=policy.default_timeslice_ns(),
    )
    twins = [Vcpu(index=i, sandbox_id="sb") for i in range(5)]
    for vcpu in twins:
        queue.enqueue_sorted(vcpu, 0)
    assert queue.dequeue_all([twins[3], twins[1]], PELT_PERIOD_NS) == 2
    assert queue.members() == [twins[0], twins[2], twins[4]]
    assert queue.dequeue_count == 2
    assert queue.load.updates_applied == 5 + 2


def test_nothing_removed_leaves_the_load_untouched():
    queue = RunQueue(
        runqueue_id=0, sort_key=CfsPolicy.sort_key, core_id=0, timeslice_ns=1_000
    )
    queue.enqueue_sorted(Vcpu(index=0, sandbox_id="sb"), 10)
    before = (queue.load.value, queue.load.last_update_ns)
    strangers = [Vcpu(index=i, sandbox_id="other") for i in range(3)]
    assert queue.dequeue_all(strangers[:1], 5 * PELT_PERIOD_NS) == 0
    assert queue.dequeue_all(strangers, 5 * PELT_PERIOD_NS) == 0
    assert (queue.load.value, queue.load.last_update_ns) == before
    assert queue.load.updates_applied == 1
