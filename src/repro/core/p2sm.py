"""P2SM: parallel precomputed sorted merge (paper §4.1).

P2SM merges a sorted linked list *A* (the paused sandbox's pre-sorted
vCPUs, ``merge_vcpus``) into another sorted linked list *B* (the
reserved ``ull_runqueue``) in O(1), by shifting all the position work
into a *precomputation phase* that runs while the sandbox is paused:

* ``arrayB`` — an array whose entry *i* is the address of (a reference
  to) the node of *B* at position *i*; index 0 is B's sentinel head, so
  "insert before the first element" is position 0.
* ``posA`` — a hashmap from a position in *B* to the sorted sub-chain
  of *A* elements that belong right after that position.

The *merge phase* (Algorithm 1 in the paper) then spawns one merge
thread per ``posA`` key; each thread performs exactly two pointer
writes to splice its chain after its anchor node.  Because every thread
owns a distinct anchor and the chains are disjoint, no mutual exclusion
on *B* is needed.

This module implements both phases on the real
:class:`~repro.core.linked_list.SortedLinkedList` structure and reports
operation counts (threads spawned, pointer writes, scan steps spent in
precomputation) that the hypervisor cost model converts into simulated
nanoseconds.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from operator import le
from typing import Dict, Generic, List, NamedTuple, Optional, TypeVar

from repro.core.linked_list import ListNode, SortedLinkedList

T = TypeVar("T")


@dataclass
class SubChain(Generic[T]):
    """A sorted chain of A-nodes anchored at one position of B."""

    head: ListNode[T]
    tail: ListNode[T]
    length: int

    def values(self) -> List[T]:
        out: List[T] = []
        node: Optional[ListNode[T]] = self.head
        remaining = self.length
        while node is not None and remaining > 0:
            out.append(node.value)
            node = node.next
            remaining -= 1
        return out


@dataclass
class MergeReport:
    """Operation counts from one P2SM merge (for the cost model)."""

    threads: int = 0
    pointer_writes: int = 0
    merged_elements: int = 0


class QueueSnapshot(NamedTuple):
    """One walk of a target list, shared by every refresh against it.

    ``nodes`` is arrayB's content (index 0 the sentinel), ``keys`` the
    sort keys of ``nodes[1:]``, and ``ordered`` whether those keys are
    non-decreasing — false only for a list a fault has mangled.
    """

    nodes: List[ListNode]
    keys: List[float]
    ordered: bool

    @classmethod
    def of(cls, target: SortedLinkedList) -> "QueueSnapshot":
        node = target.head
        nodes = [node]
        values = []
        while (node := node.next) is not None:
            nodes.append(node)
            values.append(node.value)
        keys = list(map(target.key, values))
        return cls(nodes, keys, all(map(le, keys, keys[1:])))


def _built_on_read(name: str) -> property:
    """A :class:`P2SMState` structure that is built from the pending
    snapshot on first access.  Assignment builds first too, so a
    pending snapshot never overwrites what was assigned (the fault
    injector rewrites arrayB and posA)."""
    private = "_" + name

    def read(state: "P2SMState"):
        if state._pending is not None:
            state._materialize()
        return getattr(state, private)

    def assign(state: "P2SMState", value) -> None:
        if state._pending is not None:
            state._materialize()
        setattr(state, private, value)

    return property(read, assign)


class P2SMState(Generic[T]):
    """Precomputed state tying one sorted list *A* to a target *B*.

    The hypervisor keeps one instance per (paused uLL sandbox,
    ull_runqueue) pair and refreshes it whenever either side changes
    (the paper: "the updates are performed each time ull_runqueue is
    updated").  Every refresh is accounted as a full O(|A| + |B|)
    rebuild of arrayB and posA, faithful to the paper's worst-case
    analysis; there is no incremental update path.

    On the host the rebuild is deferred: a refresh only records the
    :class:`QueueSnapshot` of the target it was handed, and the first
    read of :attr:`array_b` or :attr:`pos_a` afterwards builds them
    from that snapshot — arrayB as a copy of its nodes, A bucketed by
    binary search, A's chain nodes relinked rather than reallocated.  Building from the notification-time
    snapshot, never from a fresh walk, makes the result identical to
    an eager rebuild at refresh time, and keeps a target that changed
    without a refresh detectably stale.
    """

    def __init__(
        self,
        values_a: List[T],
        target: SortedLinkedList[T],
        snapshot: Optional[QueueSnapshot] = None,
    ) -> None:
        self._target = target
        self._key = target.key
        self.values_a: List[T] = sorted(values_a, key=self._key)
        self._array_b: List[ListNode[T]] = []
        self._pos_a: Dict[int, SubChain[T]] = {}
        #: one chain node per ``values_a`` entry, relinked by every
        #: rebuild; None until the first rebuild after construction or
        #: a merge (which hands the nodes to the target)
        self._chain_nodes: Optional[List[ListNode[T]]] = None
        #: the snapshot the next read builds from; None once built
        self._pending: Optional[QueueSnapshot] = None
        self.refresh(snapshot)

    # ------------------------------------------------------------------
    # Pre-computation phase
    # ------------------------------------------------------------------
    def refresh(self, snapshot: Optional[QueueSnapshot] = None) -> None:
        """Redo arrayB and posA against the target's current state.

        *snapshot* must be a :class:`QueueSnapshot` of this state's
        target taken since its last change; without one, the target is
        walked here.  Only the snapshot is kept: the structures are
        built from it on their next read.
        """
        if snapshot is None:
            snapshot = QueueSnapshot.of(self._target)
        self._pending = snapshot

    def _materialize(self) -> None:
        """Build arrayB and posA from the pending snapshot."""
        b_nodes, b_keys, ordered = self._pending
        self._pending = None
        # arrayB: position -> node, with index 0 the sentinel.  A private
        # copy: the snapshot is shared by every sandbox tied to the queue.
        self._array_b = b_nodes.copy()

        # posA: bucket A by insertion position relative to B, as a
        # forward scan over both sorted sequences would.  Positions never
        # decrease along A, so each search resumes where the last one
        # stopped; an unordered B (only a fault makes one) gets the scan.
        nodes = self._chain_nodes
        if nodes is None:
            nodes = self._chain_nodes = [ListNode(v) for v in self.values_a]
        key = self._key
        pos_a: Dict[int, SubChain[T]] = {}
        position = 0
        for node in nodes:
            value_key = key(node.value)
            if ordered:
                position = bisect_right(b_keys, value_key, position)
            else:
                while position < len(b_keys) and b_keys[position] <= value_key:
                    position += 1
            node.next = None
            chain = pos_a.get(position)
            if chain is None:
                pos_a[position] = SubChain(node, node, 1)
            else:
                chain.tail.next = node
                chain.tail = node
                chain.length += 1
        self._pos_a = pos_a

    array_b = _built_on_read("array_b")
    pos_a = _built_on_read("pos_a")

    # ------------------------------------------------------------------
    # Freshness verification (repro.check)
    # ------------------------------------------------------------------
    def verify_against_target(self) -> List[str]:
        """Staleness problems in arrayB/posA, as messages (empty = fresh).

        Recomputes what the precomputation *should* hold against the
        target's current state and diffs: arrayB must alias the target's
        nodes position-for-position (index 0 the sentinel), and every
        posA bucket must sit at the insertion position a fresh scan
        would assign its chain.  A stale structure here is exactly the
        corruption a delayed refresh (or a fault injector) produces —
        merging through it splices chains after unlinked or wrong nodes.
        """
        errors: List[str] = []
        expected_nodes = [self._target.head] + list(self._target.nodes())
        if len(self.array_b) != len(expected_nodes):
            errors.append(
                f"arrayB has {len(self.array_b)} entries, target has "
                f"{len(expected_nodes)} positions"
            )
        else:
            for position, (cached, live) in enumerate(
                zip(self.array_b, expected_nodes)
            ):
                if cached is not live:
                    errors.append(
                        f"arrayB[{position}] references a node no longer at "
                        f"that position of the target"
                    )
                    break
        # Recompute the bucket each A value belongs to and diff posA.
        b_keys = [self._key(node.value) for node in self._target.nodes()]
        expected_buckets: Dict[int, List[T]] = {}
        position = 0
        for value in self.values_a:
            value_key = self._key(value)
            while position < len(b_keys) and b_keys[position] <= value_key:
                position += 1
            expected_buckets.setdefault(position, []).append(value)
        if sorted(self.pos_a) != sorted(expected_buckets):
            errors.append(
                f"posA keys {sorted(self.pos_a)} != fresh scan's "
                f"{sorted(expected_buckets)}"
            )
        else:
            for key, chain in self.pos_a.items():
                cached_values = chain.values()
                if len(cached_values) != chain.length:
                    errors.append(
                        f"posA[{key}] chain length {chain.length} but "
                        f"{len(cached_values)} reachable nodes"
                    )
                elif cached_values != expected_buckets[key]:
                    errors.append(
                        f"posA[{key}] chain does not match a fresh scan"
                    )
        return errors

    # ------------------------------------------------------------------
    # Merge phase (Algorithm 1)
    # ------------------------------------------------------------------
    def merge(self) -> MergeReport:
        """Splice every posA chain into the target; O(1) per thread.

        Mutates the target list.  After the merge the precomputed state
        is consumed (A's elements now live in B); callers must call
        :meth:`refresh` with a new A before merging again.
        """
        pos_a = self.pos_a
        array_b = self.array_b
        splice_after = self._target.splice_after
        merged = 0
        for position, chain in pos_a.items():
            length = chain.length
            splice_after(array_b[position], chain.head, chain.tail, length)
            merged += length
        threads = len(pos_a)
        # Two pointer writes per merge thread (Algorithm 1).
        report = MergeReport(threads, 2 * threads, merged)
        self._pos_a = {}
        self.values_a = []
        # The chain nodes now belong to the target.
        self._chain_nodes = None
        return report

    def __repr__(self) -> str:
        return (
            f"P2SMState(|A|={len(self.values_a)}, |arrayB|={len(self.array_b)}, "
            f"posA keys={sorted(self.pos_a)})"
        )


def sorted_merge_reference(
    target: SortedLinkedList[T], values: List[T]
) -> int:
    """Vanilla per-element sorted merge (the baseline for step 4).

    Inserts each value with an O(n) scan, exactly what the unmodified
    resume path does for each vCPU.  Returns the scan steps consumed,
    which the cost model converts to simulated time.
    """
    before = target.scan_steps
    for value in sorted(values, key=target.key):
        target.insert_sorted(value)
    return target.scan_steps - before
