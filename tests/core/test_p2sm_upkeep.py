"""P2SM upkeep: every refresh equals a fresh precomputation.

``UllRunqueueManager.on_queue_updated`` walks a reserved queue once
into a :class:`QueueSnapshot` that every tied sandbox's refresh
records; a state builds arrayB and posA from its recorded snapshot on
first read, reusing its chain nodes.  None of that may be observable:
after any sequence of HORSE pauses and resumes and foreign vCPU traffic
on the reserved queues, read at any point, each tied state must equal a
:class:`P2SMState` built from the snapshot of its queue's last update,
and the accounted refresh work must stay a full rebuild's.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check import FaultInjector, FaultPlan, FaultSpec
from repro.core.hot_resume import HorsePauseResume
from repro.core.linked_list import SortedLinkedList
from repro.core.p2sm import P2SMState, QueueSnapshot
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


def assert_matches_fresh(horse, sandbox, snapshot=None):
    """*sandbox*'s state equals one built from *snapshot* (default: a
    walk of its queue now)."""
    state = sandbox.p2sm_state
    queue = horse.ull.queue(sandbox.assigned_ull_runqueue)
    if snapshot is None:
        snapshot = QueueSnapshot.of(queue.entities)
    fresh = P2SMState(sandbox.merge_vcpus, queue.entities, snapshot)
    assert len(state.array_b) == len(fresh.array_b)
    assert all(a is b for a, b in zip(state.array_b, fresh.array_b))
    assert sorted(state.pos_a) == sorted(fresh.pos_a)
    for position, chain in fresh.pos_a.items():
        cached = state.pos_a[position]
        assert cached.length == chain.length
        assert [id(v) for v in cached.values()] == [id(v) for v in chain.values()]
        assert cached.tail.next is None
    # A full rebuild, derived independently of refresh: arrayB holds the
    # whole snapshot and posA chains every sandbox vCPU.
    assert len(state.array_b) == len(snapshot.nodes)
    assert sum(chain.length for chain in state.pos_a.values()) == len(
        sandbox.merge_vcpus
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
                assert ull.queue(queue_id).dequeue_all([vcpu], now) == 1
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


def record_update_snapshots(horse):
    """Map each tied sandbox to the snapshot of its queue's last update.

    Wraps ``on_queue_updated`` (which HORSE calls through the manager
    instance) to walk the queue right after each notification, before
    anything else can touch it: the snapshot a deferred build must use.
    Pauses are recorded by the caller.
    """
    ull = horse.ull
    snapshots = {}
    notify = ull.on_queue_updated

    def spy(queue_id):
        taken = notify(queue_id)
        snapshot = QueueSnapshot.of(ull.queue(queue_id).entities)
        if taken is not None:
            # The snapshot handed back (a pause may build from it) is
            # the queue as it stands after the notification.
            assert taken.nodes == snapshot.nodes
            assert taken.keys == snapshot.keys
        for sandbox in ull.assigned_to(queue_id):
            snapshots[sandbox.sandbox_id] = snapshot
        return taken

    ull.on_queue_updated = spy
    return snapshots


@st.composite
def deferred_scenarios(draw):
    shapes, initially_paused, steps = draw(scenarios())
    # Per step: whether the tied states are read afterwards, and which
    # running vCPUs then consume CPU time (vruntime 0-30 per charge).
    reads = draw(st.lists(st.booleans(), min_size=len(steps), max_size=len(steps)))
    charges = draw(
        st.lists(
            st.lists(
                st.tuples(st.integers(min_value=0, max_value=31), VRUNTIMES),
                max_size=3,
            ),
            min_size=len(steps),
            max_size=len(steps),
        )
    )
    return shapes, initially_paused, list(zip(steps, reads, charges))


class TestDeferredBuild:
    """Several updates may land before a state is read; the read builds
    from the snapshot of the last one, never from the queue as it is at
    read time."""

    @pytest.mark.parametrize("reserved", [1, 2])
    @given(scenario=deferred_scenarios())
    @settings(max_examples=60, deadline=None)
    def test_reads_after_unread_updates(self, reserved, scenario):
        shapes, initially_paused, steps = scenario
        horse, sandboxes = build(reserved, shapes, initially_paused)
        ull = horse.ull
        policy = horse.policy
        snapshots = record_update_snapshots(horse)
        paused_keys = {}

        def record_pause(sandbox):
            queue = ull.queue(sandbox.assigned_ull_runqueue)
            snapshots[sandbox.sandbox_id] = QueueSnapshot.of(queue.entities)
            paused_keys[sandbox.sandbox_id] = [
                policy.sort_key(vcpu) for vcpu in sandbox.merge_vcpus
            ]

        def assert_reads_match():
            for sandbox in sandboxes:
                if sandbox.state is not SandboxState.PAUSED:
                    continue
                # No path moves a tied, paused vCPU's sort key, so the
                # deferred build may key A at read time.
                assert [
                    policy.sort_key(vcpu) for vcpu in sandbox.merge_vcpus
                ] == paused_keys[sandbox.sandbox_id]
                assert_matches_fresh(
                    horse, sandbox, snapshots[sandbox.sandbox_id]
                )

        for sandbox in sandboxes[:initially_paused]:
            record_pause(sandbox)
        foreign = []
        now = 0
        for (action, pick, vruntime), read, charges in steps:
            now += 1_000
            if action == "toggle":
                sandbox = sandboxes[pick % len(sandboxes)]
                if sandbox.state is SandboxState.PAUSED:
                    horse.resume(sandbox, now)
                else:
                    horse.pause(sandbox, now)
                    record_pause(sandbox)
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
            elif foreign:
                queue_id, vcpu = foreign.pop(pick % len(foreign))
                assert ull.queue(queue_id).dequeue_all([vcpu], now) == 1
                ull.on_queue_updated(queue_id)
            # Running vCPUs (on reserved queues too) consume CPU time:
            # the queues' sort keys move with no update in between.
            running = [
                vcpu
                for sandbox in sandboxes
                if sandbox.state is SandboxState.RUNNING
                for vcpu in sandbox.vcpus
            ] + [vcpu for _queue_id, vcpu in foreign]
            for which, ran_ns in charges:
                if running:
                    policy.charge(running[which % len(running)], ran_ns)
            if read:
                assert_reads_match()
        assert_reads_match()


class TestStaleness:
    def paused_on_one_queue(self, count=3):
        virt = firecracker_platform(reserved_ull_cores=1)
        horse = HorsePauseResume(virt.host, virt.policy, virt.costs)
        sandboxes = []
        for _ in range(count):
            sandbox = Sandbox(vcpus=3, memory_mb=128, is_ull=True)
            virt.vanilla.place_initial(sandbox, 0)
            horse.pause(sandbox, 0)
            sandboxes.append(sandbox)
        # Resuming one fills the queue; the others get an unread update.
        horse.resume(sandboxes[0], 1_000)
        return horse, sandboxes[1:]

    def test_unnotified_queue_change_reads_stale(self):
        horse, tied = self.paused_on_one_queue()
        queue = horse.ull.queue(tied[0].assigned_ull_runqueue)
        intruder = Vcpu(index=0, sandbox_id="intruder", vruntime=0.0)
        queue.enqueue_sorted(intruder, 2_000)  # no on_queue_updated
        problems = horse.ull.check_freshness()
        for sandbox in tied:
            assert (
                f"{sandbox.sandbox_id} on queue {queue.runqueue_id}: arrayB has "
                f"{len(queue)} entries, target has {len(queue) + 1} positions"
            ) in problems
        horse.ull.on_queue_updated(queue.runqueue_id)
        assert horse.ull.check_freshness() == []

    @pytest.mark.parametrize("kind", ["stale_arrayb", "stale_posa"])
    def test_fault_is_overwritten_by_the_next_update(self, kind):
        horse, tied = self.paused_on_one_queue(count=4)
        victim = tied[0]
        queue = horse.ull.queue(victim.assigned_ull_runqueue)
        injector = FaultInjector(FaultPlan(specs=(FaultSpec(kind, cycle=0),)))
        fired = injector.inject_before_resume(horse, victim, queue)
        assert [f.kind for f in fired] == [kind]
        assert victim.p2sm_state.verify_against_target() != []
        foreign = Vcpu(index=0, sandbox_id="foreign", vruntime=5.0)
        queue.enqueue_sorted(foreign, 2_000)
        horse.ull.on_queue_updated(queue.runqueue_id)
        assert horse.ull.check_freshness() == []
        for sandbox in tied:
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

        injector = FaultInjector(FaultPlan(specs=(FaultSpec("stale_arrayb", cycle=0),)))
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
        assert target.to_list() == [5, 10, 15, 20]


class TestOneWalkPerQueue:
    """A HORSE pause walks each touched reserved queue once: the
    snapshot ``on_queue_updated`` takes after the dequeue is the one the
    pausing sandbox's own state builds from when it is tied to that
    same queue.  The accounted work and the built state are unchanged."""

    def walks(self, monkeypatch):
        walked = []
        of = QueueSnapshot.of.__func__

        def spy(cls, target):
            walked.append(target)
            return of(cls, target)

        monkeypatch.setattr(QueueSnapshot, "of", classmethod(spy))
        return walked

    def paused(self, virt, horse, count, vcpus=3):
        sandboxes = []
        for _ in range(count):
            sandbox = Sandbox(vcpus=vcpus, memory_mb=128, is_ull=True)
            virt.vanilla.place_initial(sandbox, 0)
            horse.pause(sandbox, 0)
            sandboxes.append(sandbox)
        return sandboxes

    def assert_pause_accounting(self, horse, sandbox, result, before, cost):
        ull = horse.ull
        assert ull.refresh_operations == before[0] + cost[0]
        assert ull.refresh_entries_touched == before[1] + cost[1]
        queue = ull.queue(sandbox.assigned_ull_runqueue)
        assert result.precompute_entries == len(queue) + 1 + sandbox.vcpu_count
        assert_matches_fresh(horse, sandbox)

    def test_one_reserved_queue_is_walked_once(self, monkeypatch):
        virt = firecracker_platform(reserved_ull_cores=1)
        horse = HorsePauseResume(virt.host, virt.policy, virt.costs)
        mover, *tied = self.paused(virt, horse, count=4, vcpus=4)
        horse.resume(mover, 1_000)
        (queue_id,) = horse.ull.queue_ids
        assert {vcpu.runqueue_id for vcpu in mover.vcpus} == {queue_id}

        walked = self.walks(monkeypatch)
        before = (horse.ull.refresh_operations, horse.ull.refresh_entries_touched)
        result = horse.pause(mover, 2_000)
        cost = expected_cost(horse, [queue_id], exclude=mover)
        queue = horse.ull.queue(queue_id)
        assert walked == [queue.entities]
        assert mover.assigned_ull_runqueue == queue_id
        self.assert_pause_accounting(horse, mover, result, before, cost)
        for sandbox in tied:
            assert_matches_fresh(horse, sandbox)

    def test_distinct_dequeue_and_assigned_queues_are_walked_once_each(
        self, monkeypatch
    ):
        virt = firecracker_platform(reserved_ull_cores=2)
        horse = HorsePauseResume(virt.host, virt.policy, virt.costs)
        # Ties alternate q0, q1, q0, q1, q0: the mover lands on q0.
        *others, mover = self.paused(virt, horse, count=5)
        first, second = horse.ull.queue_ids
        assert mover.assigned_ull_runqueue == first
        horse.resume(mover, 1_000)
        # Resuming one of q1's ties leaves q1 the less assigned queue.
        leaver = next(s for s in others if s.assigned_ull_runqueue == second)
        horse.resume(leaver, 1_500)

        walked = self.walks(monkeypatch)
        before = (horse.ull.refresh_operations, horse.ull.refresh_entries_touched)
        result = horse.pause(mover, 2_000)
        cost = expected_cost(horse, [first], exclude=mover)
        assert mover.assigned_ull_runqueue == second
        assert walked == [
            horse.ull.queue(first).entities,
            horse.ull.queue(second).entities,
        ]
        self.assert_pause_accounting(horse, mover, result, before, cost)
        for sandbox in others:
            if sandbox is not leaver:
                assert_matches_fresh(horse, sandbox)
