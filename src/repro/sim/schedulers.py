"""Pluggable event schedulers: binary heap and calendar queue.

The engine's pending-event set is the single hottest data structure in
the reproduction — every simulated sleep, wake-up, timer, and scheduler
tick passes through it once on the way in and once on the way out.  Two
implementations share one interface:

* :class:`HeapScheduler` — the classic ``heapq`` binary heap the seed
  engine shipped with.  O(log n) push/pop, with each sift performing
  Python-level :meth:`Event.__lt__` calls.
* :class:`CalendarScheduler` — a calendar queue (R. Brown, CACM 1988;
  the default scheduler of ns-3-class network simulators).  Events hash
  into time buckets of width *w*; each bucket keeps ``(-time,
  -priority, -sequence, event)`` tuples sorted descending-by-real-order
  so the bucket minimum pops from the tail in O(1) and inserts go
  through :func:`bisect.insort`, whose comparisons stay entirely in C
  (the negated integers decide before the event object is ever
  reached).  With the resize policy keeping occupancy near one event
  per bucket, push and pop are amortized O(1).

Determinism contract: both schedulers drain events in *exactly* the
same total order — ascending ``(time, priority, sequence)`` — so a run
is bit-for-bit identical whichever is selected.  The differential tests
in ``tests/sim/test_schedulers.py`` pin this, including a byte-identical
``repro chaos`` comparison.

Outside the inlined drain loops, neither scheduler interprets
``Event.cancelled``; lazily-cancelled events are popped and skipped by
the engine, which owns the free-list they are recycled into.  Every
event a drain pops, fired or skipped, drops its callback on the way
out, so a handle held past its instant keeps no closure alive; and
``close()`` does the same for every event still queued when the
engine is closed.
"""

from __future__ import annotations

from bisect import insort
from heapq import heappop, heappush
from typing import Iterator, List, Optional

from repro.sim.event import Event

#: Calendar sizing bounds.  The bucket count stays a power of two so the
#: bucket index is a mask, not a modulo.
_MIN_BUCKETS = 16
_MAX_BUCKETS = 1 << 20


class HeapScheduler:
    """Binary-heap scheduler — the seed engine's data structure."""

    __slots__ = ("_heap",)

    kind = "heap"

    def __init__(self) -> None:
        self._heap: List[Event] = []

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, event: Event) -> None:
        heappush(self._heap, event)

    def pop_due(self, limit: Optional[int]) -> Optional[Event]:
        """Pop and return the minimum event if its time is <= *limit*
        (no limit when None); otherwise leave it and return None."""
        heap = self._heap
        if not heap:
            return None
        if limit is not None and heap[0].time > limit:
            return None
        return heappop(heap)

    def drain(self, engine, until: Optional[int]) -> int:
        """The engine's no-watcher dispatch loop, specialized for the
        heap: pop due events, advance the clock, fire callbacks (each
        event drops its callback as it leaves the heap), and recycle
        transient events into the engine's free-list.  Pop
        order is monotone, so the clock store needs no backwards
        check.  Returns the number executed; the engine's lifetime
        counter is updated even when a callback raises.
        """
        heap = self._heap
        clock = engine.clock
        pool = engine._pool
        pool_cap = engine._pool_cap
        pop = heappop
        executed = 0
        try:
            while heap:
                if until is not None and heap[0].time > until:
                    break
                event = pop(heap)
                callback = event.callback
                event.callback = None
                if event.cancelled:
                    if event.transient and len(pool) < pool_cap:
                        pool.append(event)
                    continue
                clock._now = event.time
                callback()
                executed += 1
                if event.transient and len(pool) < pool_cap:
                    pool.append(event)
        finally:
            engine._events_executed += executed
        return executed

    def iter_pending(self) -> Iterator[Event]:
        """All queued events, cancelled included, in no defined order."""
        return iter(self._heap)

    def close(self) -> None:
        """Drop every queued event's callback and empty the heap."""
        for event in self._heap:
            event.callback = None
        self._heap.clear()


class CalendarScheduler:
    """Calendar-queue scheduler: bucketed timing wheel, amortized O(1).

    Buckets are rotated through like months on a wall calendar: bucket
    ``i`` holds every event whose ``time // width`` hashes to ``i``
    (mod the bucket count), whatever "year" it belongs to.  ``_cursor``
    and ``_horizon`` track the bucket currently being drained and the
    exclusive upper time bound of its current-year window; an event in
    the cursor bucket is due only while its time is below the horizon,
    which is what keeps next-year events parked during this year's pass.

    The cursor only has to move backwards when a push lands *before*
    the current window (possible after the empty-calendar fast-forward
    below); :meth:`push` detects that and rewinds, preserving the
    invariant that the window never lies beyond the earliest pending
    event.  Pop correctness follows: when the cursor bucket's minimum
    is below the horizon it is the global minimum, because every
    earlier-window event would have hashed to an earlier (already
    drained) window.

    A pass that scans a whole year of buckets without finding a due
    event (a sparse calendar) falls back to a direct minimum search and
    teleports the window there, so advancing over dead time is O(bucket
    count), not O(dead time / width).
    """

    __slots__ = (
        "_buckets",
        "_mask",
        "_width",
        "_cursor",
        "_horizon",
        "_size",
        "_resize_enabled",
        "_epoch",
    )

    kind = "calendar"

    def __init__(self, width: int = 1024, buckets: int = _MIN_BUCKETS) -> None:
        if width < 1:
            raise ValueError(f"bucket width must be >= 1 ns, got {width}")
        if buckets < 1 or buckets & (buckets - 1):
            raise ValueError(f"bucket count must be a power of two, got {buckets}")
        self._width = width
        self._buckets: List[list] = [[] for _ in range(buckets)]
        self._mask = buckets - 1
        self._cursor = 0
        self._horizon = width
        self._size = 0
        self._resize_enabled = True
        #: bumped by every rebuild so cached bucket geometry (the drain
        #: loop's locals) can detect a mid-run resize and reload.
        self._epoch = 0

    def __len__(self) -> int:
        return self._size

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------
    def push(self, event: Event) -> None:
        width = self._width
        time = event.time
        window = time // width
        insort(
            self._buckets[window & self._mask],
            (-time, -event.priority, -event.sequence, event),
        )
        size = self._size + 1
        self._size = size
        if time < self._horizon - width:
            # Landed before the current window (the cursor had fast-
            # forwarded over empty time): rewind so the pop scan cannot
            # skip it.
            self._cursor = window & self._mask
            self._horizon = (window + 1) * width
        if size > 2 * (self._mask + 1):
            self._maybe_resize()

    # ------------------------------------------------------------------
    # Extraction
    # ------------------------------------------------------------------
    def _position_at_min(self) -> Optional[list]:
        """Advance the window to the bucket holding the global minimum;
        return that bucket (its minimum is the tail entry)."""
        if self._size == 0:
            return None
        buckets = self._buckets
        mask = self._mask
        width = self._width
        cursor = self._cursor
        horizon = self._horizon
        for _ in range(mask + 2):
            bucket = buckets[cursor]
            if bucket and -bucket[-1][0] < horizon:
                self._cursor = cursor
                self._horizon = horizon
                return bucket
            cursor = (cursor + 1) & mask
            horizon += width
        # Scanned a full year without a due event: the calendar is
        # sparse.  Find the true minimum directly and jump to it.
        # Entries are negated, so the earliest real event is the *max*.
        head = max(bucket[-1] for bucket in buckets if bucket)
        window = (-head[0]) // width
        self._cursor = window & mask
        self._horizon = (window + 1) * width
        return buckets[self._cursor]

    def pop_due(self, limit: Optional[int]) -> Optional[Event]:
        """Pop and return the minimum event if its time is <= *limit*
        (no limit when None); otherwise leave it and return None."""
        bucket = self._position_at_min()
        if bucket is None:
            return None
        if limit is not None and -bucket[-1][0] > limit:
            return None
        self._size -= 1
        event = bucket.pop()[3]
        if self._size < (self._mask + 1) // 4 and self._mask + 1 > _MIN_BUCKETS:
            self._maybe_resize()
        return event

    def drain(self, engine, until: Optional[int]) -> int:
        """The engine's no-watcher dispatch loop, specialized for the
        calendar: the common case — the cursor bucket holds the next
        due event — costs one list-tail peek before the callback fires.

        Bucket geometry (width/mask/buckets/cursor/horizon) is cached
        in locals; a push from inside a callback can trigger a rebuild,
        which is detected through ``_epoch`` and reloaded.  Callbacks
        can never *rewind* the window: they run with ``now`` inside the
        current window (``horizon - width <= now < horizon``), so every
        event they schedule (``time >= now``) lands in the cursor
        bucket or a later window, and the cursor only moves between
        callbacks.  Returns the number executed; the engine's lifetime
        counter is updated even when a callback raises.
        """
        clock = engine.clock
        pool = engine._pool
        pool_cap = engine._pool_cap
        executed = 0
        width = self._width
        mask = self._mask
        buckets = self._buckets
        cursor = self._cursor
        horizon = self._horizon
        epoch = self._epoch
        try:
            while self._size:
                bucket = buckets[cursor]
                if bucket:
                    head = bucket[-1]
                    time = -head[0]
                    if time < horizon:
                        if until is not None and time > until:
                            break
                        self._size -= 1
                        event = bucket.pop()[3]
                        callback = event.callback
                        event.callback = None
                        if event.cancelled:
                            if event.transient and len(pool) < pool_cap:
                                pool.append(event)
                            continue
                        clock._now = time
                        callback()
                        executed += 1
                        if event.transient and len(pool) < pool_cap:
                            pool.append(event)
                        if self._epoch != epoch:
                            epoch = self._epoch
                            width = self._width
                            mask = self._mask
                            buckets = self._buckets
                            cursor = self._cursor
                            horizon = self._horizon
                        continue
                # Cursor bucket has nothing due this window: advance,
                # falling back to a direct jump on a sparse calendar.
                scanned = 0
                while True:
                    cursor = (cursor + 1) & mask
                    horizon += width
                    scanned += 1
                    bucket = buckets[cursor]
                    if bucket and -bucket[-1][0] < horizon:
                        break
                    if scanned > mask:
                        # Negated entries: earliest real event == max.
                        head = max(b[-1] for b in buckets if b)
                        window = (-head[0]) // width
                        cursor = window & mask
                        horizon = (window + 1) * width
                        break
        finally:
            # A callback that raised right after triggering a rebuild
            # leaves the rebuilt (correct) position in place; stale
            # locals must not clobber it.
            if self._epoch == epoch:
                self._cursor = cursor
                self._horizon = horizon
            engine._events_executed += executed
        return executed

    def iter_pending(self) -> Iterator[Event]:
        """All queued events, cancelled included, in no defined order."""
        for bucket in self._buckets:
            for entry in bucket:
                yield entry[3]

    def close(self) -> None:
        """Drop every queued event's callback and empty every bucket."""
        for bucket in self._buckets:
            for entry in bucket:
                entry[3].callback = None
            bucket.clear()
        self._size = 0

    # ------------------------------------------------------------------
    # Resizing — deterministic: depends only on queue content.
    # ------------------------------------------------------------------
    def _maybe_resize(self) -> None:
        if not self._resize_enabled:
            return
        count = self._mask + 1
        if self._size > 2 * count:
            target = count * 2
        elif self._size < count // 4 and count > _MIN_BUCKETS:
            target = max(_MIN_BUCKETS, count // 2)
        else:
            return
        if target > _MAX_BUCKETS:
            return
        self._resize_enabled = False
        try:
            self._rebuild(target, self._ideal_width())
        finally:
            self._resize_enabled = True

    def _ideal_width(self) -> int:
        """Bucket width from the spacing of events near the head.

        Brown's heuristic: sample the earliest events, average their
        positive inter-event gaps, and size buckets to hold a few
        events each.  Falls back to the current width when the sample
        is degenerate (everything at one instant).
        """
        sample = sorted(
            entry[0] for bucket in self._buckets for entry in bucket[-8:]
        )[-64:]
        if len(sample) < 2:
            return self._width
        # Entries are negated times, so the sorted tail is the earliest
        # events; the real-time gap between adjacent distinct entries is
        # (-sample[i]) - (-sample[i+1]) = sample[i+1] - sample[i].
        gaps = [
            sample[i + 1] - sample[i]
            for i in range(len(sample) - 1)
            if sample[i] != sample[i + 1]
        ]
        if not gaps:
            return self._width
        return max(1, (3 * sum(gaps)) // (2 * len(gaps)))

    def _rebuild(self, buckets: int, width: int) -> None:
        entries = [entry for bucket in self._buckets for entry in bucket]
        self._buckets = [[] for _ in range(buckets)]
        self._mask = buckets - 1
        self._width = width
        self._epoch += 1
        for entry in entries:
            self._buckets[((-entry[0]) // width) & self._mask].append(entry)
        for bucket in self._buckets:
            bucket.sort()
        if entries:
            earliest = min(-entry[0] for entry in entries)
            window = earliest // width
            self._cursor = window & self._mask
            self._horizon = (window + 1) * width
        else:
            self._cursor = 0
            self._horizon = width

    def __repr__(self) -> str:
        return (
            f"CalendarScheduler(size={self._size}, "
            f"buckets={self._mask + 1}, width={self._width})"
        )


_SCHEDULERS = {
    "heap": HeapScheduler,
    "calendar": CalendarScheduler,
}


def make_scheduler(kind: str):
    """Instantiate a scheduler by name (``"heap"`` or ``"calendar"``)."""
    try:
        factory = _SCHEDULERS[kind]
    except KeyError:
        raise ValueError(
            f"unknown scheduler {kind!r}; choose from {sorted(_SCHEDULERS)}"
        ) from None
    return factory()


def scheduler_kinds() -> tuple:
    """The selectable scheduler names, stable order."""
    return tuple(sorted(_SCHEDULERS))
