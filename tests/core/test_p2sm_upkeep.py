"""P2SM upkeep: every refresh equals a fresh precomputation.

``UllRunqueueManager.on_queue_updated`` walks a reserved queue once
into a :class:`QueueSnapshot` that every tied sandbox's refresh shares,
and each refresh reuses its chain nodes.  None of that may be
observable: after any sequence of HORSE pauses and resumes and foreign
vCPU traffic on the reserved queues, each tied state must equal a
:class:`P2SMState` built from scratch, and the accounted refresh work
must stay a full rebuild's.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check import FaultInjector, FaultPlan
from repro.core.hot_resume import HorsePauseResume
from repro.core.linked_list import SortedLinkedList
from repro.core.p2sm import P2SMState, PrecomputeReport, QueueSnapshot
from repro.hypervisor.platform import firecracker_platform
from repro.hypervisor.sandbox import Sandbox, SandboxState
from repro.hypervisor.vcpu import Vcpu

#: vruntimes drawn from a small range, so keys tie and interleave
VRUNTIMES = st.integers(min_value=0, max_value=30)


@st.composite
def scenarios(draw):
    shapes = draw(
        st.lists(
            st.lists(VRUNTIMES, min_size=1, max_size=4), min_size=3, max_size=5
        )
    )
    initially_paused = draw(st.integers(min_value=2, max_value=len(shapes)))
    steps = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["toggle", "toggle", "enqueue", "dequeue"]),
                st.integers(min_value=0, max_value=7),
                VRUNTIMES,
            ),
            min_size=1,
            max_size=25,
        )
    )
    return shapes, initially_paused, steps


def build(reserved, shapes, initially_paused):
    virt = firecracker_platform(reserved_ull_cores=reserved)
    horse = HorsePauseResume(virt.host, virt.policy, virt.costs)
    sandboxes = []
    for vruntimes in shapes:
        sandbox = Sandbox(vcpus=len(vruntimes), memory_mb=128, is_ull=True)
        for vcpu, vruntime in zip(sandbox.vcpus, vruntimes):
            vcpu.vruntime = float(vruntime)
        virt.vanilla.place_initial(sandbox, 0)
        sandboxes.append(sandbox)
    for sandbox in sandboxes[:initially_paused]:
        horse.pause(sandbox, 0)
    return horse, sandboxes


def expected_cost(horse, queue_ids, exclude=None):
    """(operations, entries) of one full rebuild per tied state."""
    operations = entries = 0
    for queue_id in queue_ids:
        size = len(horse.ull.queue(queue_id))
        for sandbox in horse.ull.assigned_to(queue_id):
            if sandbox is exclude or sandbox.p2sm_state is None:
                continue
            operations += 1
            entries += size + 1 + len(sandbox.p2sm_state.values_a)
    return operations, entries


def assert_matches_fresh(horse, sandbox):
    state = sandbox.p2sm_state
    queue = horse.ull.queue(sandbox.assigned_ull_runqueue)
    fresh = P2SMState(sandbox.merge_vcpus, queue.entities)
    assert len(state.array_b) == len(fresh.array_b)
    assert all(a is b for a, b in zip(state.array_b, fresh.array_b))
    assert sorted(state.pos_a) == sorted(fresh.pos_a)
    for position, chain in fresh.pos_a.items():
        cached = state.pos_a[position]
        assert cached.length == chain.length
        assert [id(v) for v in cached.values()] == [id(v) for v in chain.values()]
        assert cached.tail.next is None
    assert state.last_report == fresh.last_report
    # A full rebuild's work, derived independently of refresh: the scan
    # ends at the last bucket's position.
    assert state.last_report == PrecomputeReport(
        array_entries=len(queue) + 1,
        posa_keys=len(state.pos_a),
        scan_steps=max(state.pos_a, default=0),
        chain_nodes=len(sandbox.merge_vcpus),
    )


class TestRefreshEqualsFreshBuild:
    @pytest.mark.parametrize("reserved", [1, 2])
    @given(scenario=scenarios())
    @settings(max_examples=60, deadline=None)
    def test_any_sequence(self, reserved, scenario):
        shapes, initially_paused, steps = scenario
        horse, sandboxes = build(reserved, shapes, initially_paused)
        ull = horse.ull
        foreign = []
        operations = ull.refresh_operations
        entries = ull.refresh_entries_touched
        now = 0
        for action, pick, vruntime in steps:
            now += 1_000
            if action == "toggle":
                sandbox = sandboxes[pick % len(sandboxes)]
                if sandbox.state is SandboxState.PAUSED:
                    queue_id = sandbox.assigned_ull_runqueue
                    horse.resume(sandbox, now)
                    cost = expected_cost(horse, [queue_id])
                else:
                    touched = {
                        vcpu.runqueue_id
                        for vcpu in sandbox.vcpus
                        if ull.is_ull_queue(vcpu.runqueue_id)
                    }
                    horse.pause(sandbox, now)
                    cost = expected_cost(horse, touched, exclude=sandbox)
            elif action == "enqueue":
                queue_id = ull.queue_ids[pick % len(ull.queue_ids)]
                vcpu = Vcpu(
                    index=0,
                    sandbox_id=f"foreign-{len(foreign)}",
                    vruntime=float(vruntime),
                )
                ull.queue(queue_id).enqueue_sorted(vcpu, now)
                foreign.append((queue_id, vcpu))
                ull.on_queue_updated(queue_id)
                cost = expected_cost(horse, [queue_id])
            else:
                if not foreign:
                    continue
                queue_id, vcpu = foreign.pop(pick % len(foreign))
                assert ull.queue(queue_id).dequeue(vcpu, now)
                ull.on_queue_updated(queue_id)
                cost = expected_cost(horse, [queue_id])
            operations += cost[0]
            entries += cost[1]

            assert ull.check_freshness() == []
            assert ull.refresh_operations == operations
            assert ull.refresh_entries_touched == entries
            for sandbox in sandboxes:
                if sandbox.state is SandboxState.PAUSED:
                    assert_matches_fresh(horse, sandbox)


def make_target(values):
    target = SortedLinkedList(key=lambda v: v)
    for value in values:
        target.insert_sorted(value)
    return target


class TestFaultPaths:
    def test_unordered_target_gets_forward_scan_buckets(self):
        target = make_target([10, 20, 30])
        # Mangle B's order in place, as a corrupted splice would.
        for node, value in zip(target.nodes(), [30, 10, 20]):
            node.value = value
        assert QueueSnapshot.of(target).ordered is False
        state = P2SMState([5, 15, 25, 35], target)
        # The forward scan stops at 30 for 5, 15 and 25; only 35 passes
        # every node.  Bisection over [30, 10, 20] would disagree.
        assert {k: c.values() for k, c in state.pos_a.items()} == {
            0: [5, 15, 25],
            3: [35],
        }
        assert state.last_report.scan_steps == 3
        assert state.verify_against_target() == []

    def test_stale_arrayb_in_one_sandbox_spares_its_queue_mates(self):
        virt = firecracker_platform(reserved_ull_cores=1)
        horse = HorsePauseResume(virt.host, virt.policy, virt.costs)
        sandboxes = []
        for _ in range(4):
            sandbox = Sandbox(vcpus=3, memory_mb=128, is_ull=True)
            virt.vanilla.place_initial(sandbox, 0)
            horse.pause(sandbox, 0)
            sandboxes.append(sandbox)
        # Resuming one fills the queue and refreshes the other three
        # from one shared snapshot.
        horse.resume(sandboxes[0], 1_000)
        victim, *mates = sandboxes[1:]
        queue = horse.ull.queue(victim.assigned_ull_runqueue)
        assert all(m.assigned_ull_runqueue == queue.runqueue_id for m in mates)

        injector = FaultInjector(FaultPlan.single("stale_arrayb", cycle=0))
        fired = injector.inject_before_resume(horse, victim, queue)
        assert [f.kind for f in fired] == ["stale_arrayb"]
        assert victim.p2sm_state.verify_against_target() != []
        for mate in mates:
            assert mate.p2sm_state.verify_against_target() == []


class TestChainNodeLifetime:
    def test_refresh_relinks_the_same_nodes(self):
        target = make_target([10, 20])
        state = P2SMState([5, 15, 25], target)
        before = [chain.head for chain in state.pos_a.values()]
        target.insert_sorted(12)
        state.refresh()
        assert sorted(state.pos_a) == [0, 2, 3]
        assert [chain.head for chain in state.pos_a.values()] == before

    def test_merge_hands_the_nodes_to_the_target(self):
        target = make_target([10, 20])
        state = P2SMState([5, 15], target)
        state.merge()
        state.refresh()
        assert state.pos_a == {}
        assert state.last_report.chain_nodes == 0
        assert target.to_list() == [5, 10, 15, 20]

    def test_a_side_change_rebuilds_the_nodes(self):
        state = P2SMState([5, 15], make_target([10]))
        state.add_to_a(12)
        assert state.pos_a[1].values() == [12, 15]
        assert state.remove_from_a(5)
        assert {k: c.values() for k, c in state.pos_a.items()} == {1: [12, 15]}
        assert state.verify_against_target() == []
