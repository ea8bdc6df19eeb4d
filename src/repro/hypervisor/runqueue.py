"""Per-core run queues: sorted lists of runnable vCPUs plus tracked load.

A run queue is the object both of the paper's hot operations touch:

* step 4 — *sorted merge* of each resuming vCPU into the queue's
  sorted linked list (sort key comes from the scheduler policy);
* step 5 — *load update* of the queue's PELT aggregate, which the
  kernel's DVFS governor reads.

``RunQueue`` executes both operations for real and exposes the raw
operation counts (linked-list scan steps, load folds) that the cost
model converts into simulated nanoseconds.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from repro.core.linked_list import SortedLinkedList
from repro.hypervisor.load_tracking import RunqueueLoad
from repro.hypervisor.vcpu import Vcpu
from repro.obs.context import NULL_OBS, Observability


def _runqueue_handles(metrics):
    """Registry-cached instrument bundle shared by every run queue."""
    return (
        metrics.counter("runqueue.enqueue"),
        metrics.counter("runqueue.scan_steps"),
        metrics.gauge("runqueue.last_len"),
        metrics.counter("runqueue.dequeue"),
    )


class RunQueue:
    """A single core's sorted queue of runnable vCPUs."""

    __slots__ = (
        "runqueue_id",
        "core_id",
        "timeslice_ns",
        "reserved_for_ull",
        "obs",
        "entities",
        "load",
        "enqueue_count",
        "dequeue_count",
        "_instruments",
    )

    def __init__(
        self,
        runqueue_id: int,
        sort_key: Callable[[Vcpu], float],
        core_id: int,
        timeslice_ns: int,
        reserved_for_ull: bool = False,
        obs: Observability = NULL_OBS,
    ) -> None:
        if timeslice_ns <= 0:
            raise ValueError(f"timeslice must be positive, got {timeslice_ns}")
        self.runqueue_id = runqueue_id
        self.core_id = core_id
        self.timeslice_ns = timeslice_ns
        self.reserved_for_ull = reserved_for_ull
        self.obs = obs
        self.entities: SortedLinkedList[Vcpu] = SortedLinkedList(sort_key)
        self.load = RunqueueLoad()
        self.enqueue_count = 0
        self.dequeue_count = 0
        #: (enqueue ctr, scan ctr, len gauge, dequeue ctr) — bound on
        #: first use; see _bound_instruments.
        self._instruments = None

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
        before = self.entities.scan_steps
        self.entities.insert_sorted(vcpu)
        vcpu.mark_runnable(self.runqueue_id)
        self.load.enqueue_entity(now_ns, vcpu.weight)
        self.enqueue_count += 1
        steps = self.entities.scan_steps - before
        if self.obs.enabled:
            self._observe_enqueue(steps)
        return steps

    def enqueue_sorted_without_load(self, vcpu: Vcpu) -> int:
        """Sorted insert only — used when load updates are coalesced."""
        before = self.entities.scan_steps
        self.entities.insert_sorted(vcpu)
        vcpu.mark_runnable(self.runqueue_id)
        self.enqueue_count += 1
        steps = self.entities.scan_steps - before
        if self.obs.enabled:
            self._observe_enqueue(steps)
        return steps

    def _bound_instruments(self):
        """Handles in the attached registry; steady state is one
        attribute read.

        The binding itself lives on the registry (``metrics.bound``):
        run-queue metrics are global names, and studies churn through
        hundreds of short-lived queues that would otherwise each pay
        the four registry lookups on their first enqueue.
        """
        handles = self._instruments
        if handles is None:
            handles = self._instruments = self.obs.metrics.bound(
                "runqueue", _runqueue_handles
            )
        return handles

    def _observe_enqueue(self, scan_steps: int) -> None:
        handles = self._bound_instruments()
        handles[0].inc()
        handles[1].inc(scan_steps)
        handles[2].set(self.entities._size)

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
        if self.obs.enabled:
            self._bound_instruments()[3].inc(removed)
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
