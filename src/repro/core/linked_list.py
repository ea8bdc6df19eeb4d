"""Intrusive sorted singly-linked list.

This is the substrate data structure of the whole reproduction: CPU run
queues are sorted linked lists of schedulable entities (the paper's
step 4 performs "a sorted merge of each vCPU to the target run queue"),
and P2SM's O(1) merge is literally two ``next``-pointer writes per
precomputed position on such a list.

The list is *intrusive*: callers insert :class:`ListNode` objects whose
``next`` pointers the list owns.  That mirrors the kernel structures the
paper modifies and is what makes P2SM's pointer splicing expressible.

A sentinel head node keeps every position — including "before the first
element" — addressable by a node pointer, which P2SM's ``arrayB``
requires (position *i* in ``arrayB`` is the node after which a sub-list
splices in; index 0 is the sentinel).
"""

from __future__ import annotations

from typing import Any, Callable, Generic, Iterator, List, Optional, TypeVar

T = TypeVar("T")

SortKey = Callable[[Any], float]


class ListNode(Generic[T]):
    """A node carrying *value*, linked through ``next``."""

    __slots__ = ("value", "next")

    def __init__(self, value: T) -> None:
        self.value = value
        self.next: Optional["ListNode[T]"] = None

    def __repr__(self) -> str:
        return f"ListNode({self.value!r})"


class SortedLinkedList(Generic[T]):
    """Singly-linked list kept sorted (ascending) by *key*.

    Ties insert after existing equal keys (FIFO among equals), matching
    run-queue semantics where an enqueued vCPU goes behind peers with
    the same credit.

    ``scan_steps`` counts node hops performed by sorted operations; the
    hypervisor cost model charges simulated time proportional to it, so
    the O(n) character of the vanilla merge is *measured from the real
    data structure*, not assumed.
    """

    def __init__(self, key: SortKey) -> None:
        self._key = key
        self.head: ListNode[T] = ListNode(None)  # sentinel
        self._size = 0
        self.scan_steps = 0

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def key(self) -> SortKey:
        return self._key

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    def __iter__(self) -> Iterator[T]:
        node = self.head.next
        while node is not None:
            yield node.value
            node = node.next

    def nodes(self) -> Iterator[ListNode[T]]:
        node = self.head.next
        while node is not None:
            yield node
            node = node.next

    def first(self) -> Optional[T]:
        return self.head.next.value if self.head.next is not None else None

    def to_list(self) -> List[T]:
        return list(self)

    # ------------------------------------------------------------------
    # Sorted mutation
    # ------------------------------------------------------------------
    def insert_sorted(self, value: T) -> ListNode[T]:
        """Insert *value* at its sorted position; returns the new node.

        This is the vanilla per-vCPU sorted merge: an O(n) scan from the
        head to the last node whose key is <= *value*'s (the sentinel if
        none), counted in ``scan_steps``.  The hops are counted in a
        local and added once.
        """
        key = self._key
        key_value = key(value)
        prev = self.head
        following = prev.next
        hops = 0
        while following is not None and key(following.value) <= key_value:
            hops += 1
            prev = following
            following = following.next
        self.scan_steps += hops
        node = ListNode(value)
        node.next = following
        prev.next = node
        self._size += 1
        return node

    def remove(self, value: T) -> bool:
        """Remove the first node holding *value* (identity or equality).

        Returns True if found.  O(n) scan, counted in ``scan_steps``.
        """
        prev = self.head
        node = self.head.next
        while node is not None:
            self.scan_steps += 1
            if node.value is value or node.value == value:
                prev.next = node.next
                node.next = None
                self._size -= 1
                return True
            prev = node
            node = node.next
        return False

    def pop_first(self) -> Optional[T]:
        """Remove and return the smallest-key value, or None if empty."""
        node = self.head.next
        if node is None:
            return None
        self.head.next = node.next
        node.next = None
        self._size -= 1
        return node.value

    # ------------------------------------------------------------------
    # Splicing (the primitive the P2SM merge threads execute)
    # ------------------------------------------------------------------
    def splice_after(
        self,
        anchor: ListNode[T],
        sub_head: ListNode[T],
        sub_tail: ListNode[T],
        length: int,
    ) -> None:
        """Splice the chain ``sub_head..sub_tail`` in after *anchor*.

        Exactly the two pointer writes of the paper's Algorithm 1:
        ``tmp = anchor.next; anchor.next = sub_head; sub_tail.next = tmp``.
        O(1) regardless of chain or list length; does **not** touch
        ``scan_steps``.  The caller guarantees sortedness (that is what
        the precomputation phase establishes).
        """
        if length <= 0:
            raise ValueError(f"splice length must be positive, got {length}")
        tmp = anchor.next
        anchor.next = sub_head
        sub_tail.next = tmp
        self._size += length

    # ------------------------------------------------------------------
    # Invariant checking (repro.check and tests)
    # ------------------------------------------------------------------
    def structure_errors(self) -> List[str]:
        """Structural problems as human-readable strings (empty = sound).

        One cycle-safe walk checks link integrity (no cycle, no node
        chain longer than the size counter admits), the size counter,
        and sortedness.  It cannot loop forever on a corrupted list, so
        it is safe to call on state a fault injector has deliberately
        mangled.
        """
        errors: List[str] = []
        limit = self._size + 1
        walked = 0
        previous_key: Optional[float] = None
        node = self.head.next
        while node is not None:
            walked += 1
            if walked > limit:
                errors.append(
                    f"link corruption: walked {walked} nodes but size "
                    f"counter is {self._size} (cycle or lost splice)"
                )
                return errors
            current = self._key(node.value)
            if previous_key is not None and current < previous_key:
                errors.append(
                    f"order violated at node {walked}: key {current!r} "
                    f"after {previous_key!r}"
                )
            previous_key = current
            node = node.next
        if walked != self._size:
            errors.append(
                f"size counter drifted: walked {walked}, cached {self._size}"
            )
        return errors

    def __repr__(self) -> str:
        preview = ", ".join(repr(v) for _, v in zip(range(4), self))
        suffix = ", ..." if self._size > 4 else ""
        return f"SortedLinkedList([{preview}{suffix}], size={self._size})"
