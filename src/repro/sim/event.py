"""Events: the unit of work of the simulation engine.

An :class:`Event` is a callback bound to a simulated time.  Events fire
in ``(time, priority, sequence)`` order:

* ``time`` — when the event fires;
* ``priority`` — ties at the same instant fire lowest-priority-number
  first, which lets e.g. a scheduler-tick event run before user work
  scheduled at the same nanosecond;
* ``sequence`` — a monotonically increasing counter that makes ordering
  of otherwise-equal events deterministic (FIFO) and keeps heap
  comparisons from ever reaching the event itself.

The engine's heap orders ``(time, priority, sequence, event)`` tuples,
so an ``Event`` defines no ordering of its own.  It is deliberately a
plain ``__slots__`` class rather than a dataclass: the engine allocates
one per scheduled callback, which makes it the hottest object in the
whole simulator.  Slots cut per-instance memory roughly in half and
make attribute access a fixed-offset load.
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
    """A scheduled callback; fires in (time, priority, sequence) order.

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

    def cancel(self) -> None:
        """Mark the event so the engine skips it when popped.

        Cancellation is lazy — the event stays in the engine's heap but
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
