"""Per-core run queues: sorted lists of runnable vCPUs plus tracked load.

A run queue is the object both of the paper's hot operations touch:

* step 4 — *sorted merge* of each resuming vCPU into the queue's
  sorted linked list (sort key comes from the scheduler policy);
* step 5 — *load update* of the queue's PELT aggregate, which the
  kernel's DVFS governor reads.

``RunQueue`` executes both operations for real and exposes the raw
operation counts (linked-list scan steps, load folds) that the cost
model converts into simulated nanoseconds.  The same plain-int counts
are what the metric registry exports: a collector reads them at
snapshot time (:class:`repro.hypervisor.platform.VirtualizationPlatform`),
so an insert pays no metric call.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from repro.core.linked_list import SortedLinkedList
from repro.hypervisor.load_tracking import RunqueueLoad
from repro.hypervisor.vcpu import Vcpu


class RunQueue:
    """A single core's sorted queue of runnable vCPUs."""

    __slots__ = (
        "runqueue_id",
        "core_id",
        "timeslice_ns",
        "reserved_for_ull",
        "entities",
        "load",
        "dequeue_count",
        "sorted_inserts",
        "insert_scan_steps",
        "last_len",
    )

    def __init__(
        self,
        runqueue_id: int,
        sort_key: Callable[[Vcpu], float],
        core_id: int,
        timeslice_ns: int,
        reserved_for_ull: bool = False,
        last_len: Optional[List[Optional[int]]] = None,
    ) -> None:
        if timeslice_ns <= 0:
            raise ValueError(f"timeslice must be positive, got {timeslice_ns}")
        self.runqueue_id = runqueue_id
        self.core_id = core_id
        self.timeslice_ns = timeslice_ns
        self.reserved_for_ull = reserved_for_ull
        self.entities: SortedLinkedList[Vcpu] = SortedLinkedList(sort_key)
        self.load = RunqueueLoad()
        self.dequeue_count = 0
        #: one-at-a-time sorted inserts (the vanilla step 4) and the
        #: list hops they took; HORSE merges count in neither
        self.sorted_inserts = 0
        self.insert_scan_steps = 0
        #: one-slot cell that every sorted insert overwrites with the
        #: queue length; queues observed by one registry share a cell
        self.last_len = [None] if last_len is None else last_len

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.entities)

    @property
    def sort_key(self) -> Callable[[Vcpu], float]:
        return self.entities.key

    def enqueue_sorted(self, vcpu: Vcpu, now_ns: int) -> int:
        """Vanilla step 4+5 for one vCPU.

        Performs the real O(n) sorted insert and the real PELT fold.
        Returns the scan steps the insert consumed so the caller can
        charge simulated time.
        """
        steps = self.enqueue_sorted_without_load(vcpu)
        self.load.enqueue_entity(now_ns, vcpu.weight)
        return steps

    def enqueue_sorted_without_load(self, vcpu: Vcpu) -> int:
        """Sorted insert only — used when load updates are coalesced."""
        entities = self.entities
        before = entities.scan_steps
        entities.insert_sorted(vcpu)
        vcpu.mark_runnable(self.runqueue_id)
        self.sorted_inserts += 1
        steps = entities.scan_steps - before
        self.insert_scan_steps += steps
        self.last_len[0] = entities._size
        return steps

    def dequeue_all(self, vcpus: Sequence[Vcpu], now_ns: int) -> int:
        """Unlink every one of *vcpus* that sits on this queue (pause path).

        One walk of the list finds them all.  The load then decays once
        to *now_ns* and folds each removed vCPU out in *vcpus* order —
        the floats of dequeuing them one at a time.  The vCPUs' own
        state is the caller's to set.  Returns how many were removed.
        """
        entities = self.entities
        prev = entities.head
        node = prev.next
        if len(vcpus) == 1:
            # The common case (vanilla spreads a sandbox over queues):
            # an identity scan, with no set to build.
            target = vcpus[0]
            while node is not None and node.value is not target:
                prev = node
                node = node.next
            if node is None:
                return 0
            prev.next = node.next
            node.next = None
            entities._size -= 1
            self.load.dequeue_entity(now_ns, target.weight)
            removed = 1
        else:
            pending = set(vcpus)
            while node is not None:
                following = node.next
                if node.value in pending:
                    prev.next = following
                    node.next = None
                    pending.remove(node.value)
                    if not pending:
                        break
                else:
                    prev = node
                node = following
            if pending:  # some were not on this queue
                vcpus = [vcpu for vcpu in vcpus if vcpu not in pending]
            removed = len(vcpus)
            if not removed:
                return 0
            entities._size -= removed
            self.load.dequeue_entities(now_ns, [vcpu.weight for vcpu in vcpus])
        self.dequeue_count += removed
        return removed

    def pop_next(self) -> Optional[Vcpu]:
        return self.entities.pop_first()

    def members(self) -> List[Vcpu]:
        return self.entities.to_list()

    # ------------------------------------------------------------------
    # Invariants (tests + debug)
    # ------------------------------------------------------------------
    def invariant_violations(self) -> List[str]:
        """Every broken structural invariant, as messages (empty = sound).

        Used by the ``repro.check`` registry, so a corrupted queue is
        *reported* rather than aborting the run, and by tests as
        ``assert not queue.invariant_violations()``.  The underlying
        walk is cycle-safe, so this is callable on fault-injected state.
        """
        prefix = f"runqueue {self.runqueue_id}"
        violations = [
            f"{prefix}: {error}" for error in self.entities.structure_errors()
        ]
        if not violations:  # membership walk only when links are sound
            for vcpu in self.entities:
                if vcpu.runqueue_id != self.runqueue_id:
                    violations.append(
                        f"{prefix}: {vcpu!r} claims queue {vcpu.runqueue_id}"
                    )
        if self.load.value < 0.0:
            violations.append(f"{prefix}: negative load {self.load.value}")
        return violations

    def __repr__(self) -> str:
        kind = "ull" if self.reserved_for_ull else "general"
        return (
            f"RunQueue(#{self.runqueue_id} core={self.core_id} {kind} "
            f"len={len(self.entities)} load={self.load.value:.1f})"
        )
