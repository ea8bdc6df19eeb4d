"""Reserved uLL run queues and their management (paper §4.1.3).

Applying P2SM against *every* run queue would mean maintaining
``arrayB``/``posA`` for all of them, "which would be computationally
expensive".  HORSE therefore reserves one (or more) run queues for uLL
sandboxes — ``ull_runqueue`` — with a 1 us maximum timeslice, and ties
each paused uLL sandbox to exactly one of them at *pause* time.  With
several reserved queues, the assignment balances on the number of
paused sandboxes already tied to each queue.

:class:`UllRunqueueManager` owns the assignments, and re-runs the P2SM
precomputation of every tied sandbox whenever its queue changes ("the
updates are performed each time ull_runqueue is updated"), accounting
the refresh work so the §5.2 overhead study can report it.

Each update walks the queue once into a
:class:`~repro.core.p2sm.QueueSnapshot` (its nodes with the sentinel
first, their sort keys, and whether those keys are in order), and every
tied sandbox's refresh records that one snapshot; a sandbox builds its
structures from it only when they are read (at resume, or by a check).
The accounted work is still one full rebuild per tied sandbox: its
arrayB entries plus its chain nodes.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.p2sm import P2SMState, QueueSnapshot
from repro.hypervisor.cpu import Host
from repro.hypervisor.runqueue import RunQueue
from repro.hypervisor.sandbox import Sandbox


class UllAssignmentError(Exception):
    """A sandbox/queue assignment operation was invalid."""


class UllRunqueueManager:
    """Assigns paused uLL sandboxes to reserved queues and keeps their
    P2SM precomputation fresh."""

    def __init__(self, host: Host) -> None:
        queues = host.ull_runqueues()
        if not queues:
            raise UllAssignmentError(
                "host reserves no uLL run queues; build it with "
                "reserved_ull_cores >= 1"
            )
        self.host = host
        self._queues: Dict[int, RunQueue] = {q.runqueue_id: q for q in queues}
        #: queue id -> sandboxes currently tied to it (paused, precomputed)
        self._assignments: Dict[int, List[Sandbox]] = {
            qid: [] for qid in self._queues
        }
        #: cumulative precompute-refresh work, for the overhead study
        self.refresh_operations = 0
        self.refresh_entries_touched = 0

    # ------------------------------------------------------------------
    # Queue selection & assignment
    # ------------------------------------------------------------------
    @property
    def queue_ids(self) -> List[int]:
        return sorted(self._queues)

    def queue(self, runqueue_id: int) -> RunQueue:
        try:
            return self._queues[runqueue_id]
        except KeyError:
            raise UllAssignmentError(
                f"run queue {runqueue_id} is not a reserved uLL queue"
            ) from None

    def is_ull_queue(self, runqueue_id: Optional[int]) -> bool:
        """True when *runqueue_id* names one of the reserved queues."""
        return runqueue_id in self._queues

    def select_queue(self) -> RunQueue:
        """Least-assigned reserved queue (the paper's balancing rule)."""
        best_id = min(
            self._assignments,
            key=lambda qid: (len(self._assignments[qid]), qid),
        )
        return self._queues[best_id]

    def assign(self, sandbox: Sandbox) -> RunQueue:
        """Tie a pausing uLL sandbox to a reserved queue."""
        if sandbox.assigned_ull_runqueue is not None:
            raise UllAssignmentError(
                f"{sandbox.sandbox_id} already assigned to queue "
                f"{sandbox.assigned_ull_runqueue}"
            )
        queue = self.select_queue()
        self._assignments[queue.runqueue_id].append(sandbox)
        sandbox.assigned_ull_runqueue = queue.runqueue_id
        return queue

    def unassign(self, sandbox: Sandbox) -> None:
        """Detach a sandbox (on resume or destruction)."""
        queue_id = sandbox.assigned_ull_runqueue
        if queue_id is None:
            return
        members = self._assignments.get(queue_id, [])
        try:
            members.remove(sandbox)
        except ValueError:
            raise UllAssignmentError(
                f"{sandbox.sandbox_id} not found on queue {queue_id}"
            ) from None
        sandbox.assigned_ull_runqueue = None

    def reclaim(self, sandbox: Sandbox) -> None:
        """Free a stopped sandbox's host resources: detach it from its
        ull_runqueue (it may still carry live P2SM state), drop its
        HORSE artifacts and return its memory to the host.  The warm
        pool calls this on every keep-alive eviction."""
        self.unassign(sandbox)
        sandbox.clear_horse_artifacts()
        self.host.release_memory(sandbox.memory_mb)

    def assigned_to(self, runqueue_id: int) -> List[Sandbox]:
        return list(self._assignments.get(runqueue_id, []))

    def assignment_counts(self) -> Dict[int, int]:
        return {qid: len(boxes) for qid, boxes in self._assignments.items()}

    # ------------------------------------------------------------------
    # Precomputation freshness
    # ------------------------------------------------------------------
    def on_queue_updated(self, runqueue_id: int) -> Optional[QueueSnapshot]:
        """Refresh the P2SM state of every sandbox tied to this queue.

        Called after any structural change to a reserved queue (a task
        enqueued or finished).  The queue is walked once, into a
        snapshot every tied refresh shares; the structure entries a
        full rebuild touches accrue in :attr:`refresh_entries_touched`,
        which the overhead experiment converts to CPU time.  Returns
        the snapshot, or None when no tied sandbox needed one.
        """
        snapshot: Optional[QueueSnapshot] = None
        refreshed = entries = 0
        for sandbox in self._assignments.get(runqueue_id, []):
            state: Optional[P2SMState] = sandbox.p2sm_state
            if state is None:
                continue
            if snapshot is None:
                snapshot = QueueSnapshot.of(self._queues[runqueue_id].entities)
            state.refresh(snapshot)
            refreshed += 1
            entries += len(state.values_a)
        if snapshot is not None:
            self.refresh_operations += refreshed
            self.refresh_entries_touched += entries + refreshed * len(snapshot.nodes)
        return snapshot

    def check_freshness(self) -> List[str]:
        """Staleness across every tied sandbox's P2SM state (repro.check).

        Verifies each assigned sandbox's arrayB/posA against its queue's
        *current* contents — the invariant "the updates are performed
        each time ull_runqueue is updated" promises.  Also cross-checks
        the assignment table against the sandbox attributes.
        """
        problems: List[str] = []
        for queue_id, members in self._assignments.items():
            for sandbox in members:
                if sandbox.assigned_ull_runqueue != queue_id:
                    problems.append(
                        f"{sandbox.sandbox_id}: assignment table says queue "
                        f"{queue_id}, sandbox says "
                        f"{sandbox.assigned_ull_runqueue}"
                    )
                state: Optional[P2SMState] = sandbox.p2sm_state
                if state is None:
                    continue
                problems.extend(
                    f"{sandbox.sandbox_id} on queue {queue_id}: {error}"
                    for error in state.verify_against_target()
                )
        return problems

    def __repr__(self) -> str:
        counts = ", ".join(
            f"q{qid}:{len(boxes)}" for qid, boxes in sorted(self._assignments.items())
        )
        return f"UllRunqueueManager({counts})"
