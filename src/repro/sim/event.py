"""Events: the unit of work of the simulation engine.

An :class:`Event` is a callback bound to a simulated time.  Events are
totally ordered by ``(time, priority, sequence)``:

* ``time`` — when the event fires;
* ``priority`` — ties at the same instant fire lowest-priority-number
  first, which lets e.g. a scheduler-tick event run before user work
  scheduled at the same nanosecond;
* ``sequence`` — a monotonically increasing counter that makes ordering
  of otherwise-equal events deterministic (FIFO) and keeps comparisons
  from ever reaching the (uncomparable) callback.

``Event`` is deliberately a plain ``__slots__`` class rather than a
dataclass: the engine allocates one per scheduled callback, which makes
it the hottest object in the whole simulator.  Slots cut per-instance
memory roughly in half and make attribute access a fixed-offset load,
and the hand-written comparison methods avoid the tuple the generated
dataclass ordering would build on every heap sift.
"""

from __future__ import annotations

import enum
from typing import Callable, Optional


class EventPriority(enum.IntEnum):
    """Tie-break classes for events firing at the same instant.

    Lower values fire first.  The gaps leave room for experiment code to
    define intermediate classes without renumbering.
    """

    INTERRUPT = 0
    #: Infrastructure failures (node crashes, recoveries).  A crash
    #: scheduled at the same nanosecond as user work must strike first,
    #: so the work observes the failed world — otherwise replay order
    #: would depend on insertion order alone.
    FAILURE = 5
    SCHEDULER = 10
    NORMAL = 20
    BACKGROUND = 30


class Event:
    """A scheduled callback; ordered by (time, priority, sequence).

    ``transient`` marks events whose handle the scheduling call site
    discards (process sleeps, waitable wake-ups, spawn/join hops): the
    engine is free to recycle those objects through its free-list after
    they fire, because no live reference can observe the reuse.  Events
    scheduled the ordinary way are never recycled, so holding the return
    value of :meth:`Engine.schedule_at` and cancelling it later is
    always safe.  ``generation`` counts reuses of one object — the
    pooling property tests pin that a recycled event never carries its
    previous occupant's callback.

    Every event drops its ``callback`` (sets it to None) once it has
    fired or been skipped, and :meth:`cancel` drops it at once, so a
    handle held after its instant keeps only this slotted object alive,
    never the closure and whatever the closure captured.
    """

    __slots__ = (
        "time",
        "priority",
        "sequence",
        "callback",
        "cancelled",
        "label",
        "transient",
        "generation",
    )

    def __init__(
        self,
        time: int,
        priority: int,
        sequence: int,
        callback: Optional[Callable[[], None]],
        cancelled: bool = False,
        label: str = "",
        transient: bool = False,
    ) -> None:
        self.time = time
        self.priority = priority
        self.sequence = sequence
        self.callback = callback
        self.cancelled = cancelled
        self.label = label
        self.transient = transient
        self.generation = 0

    # ------------------------------------------------------------------
    # Ordering — (time, priority, sequence); sequence is unique, so two
    # distinct events never compare equal and the callback never enters
    # a comparison.
    # ------------------------------------------------------------------
    def sort_key(self) -> tuple:
        """The total-order key ``(time, priority, sequence)``."""
        return (self.time, self.priority, self.sequence)

    def __lt__(self, other: "Event") -> bool:
        if self.time != other.time:
            return self.time < other.time
        if self.priority != other.priority:
            return self.priority < other.priority
        return self.sequence < other.sequence

    def __le__(self, other: "Event") -> bool:
        return not other.__lt__(self)

    def __gt__(self, other: "Event") -> bool:
        return other.__lt__(self)

    def __ge__(self, other: "Event") -> bool:
        return not self.__lt__(other)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Event):
            return NotImplemented
        return (
            self.time == other.time
            and self.priority == other.priority
            and self.sequence == other.sequence
        )

    def __hash__(self) -> int:
        return hash((self.time, self.priority, self.sequence))

    def cancel(self) -> None:
        """Mark the event so the engine skips it when popped.

        Cancellation is lazy — the event stays in the scheduler but
        becomes a no-op.  This is O(1) and avoids queue surgery.  The
        callback is dropped at once: a cancelled event never fires, so
        its closure need not outlive the call.
        """
        self.cancelled = True
        self.callback = None

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "pending"
        name = self.label or getattr(self.callback, "__name__", "<callback>")
        return f"Event(t={self.time}, prio={self.priority}, {name}, {state})"
