"""Nested timed spans keyed to the simulated clock.

A :class:`Span` is one named interval ``[start_ns, start_ns +
duration_ns)`` with parent/child links, free-form attributes, and a
track assignment (``pid``/``tid`` — by convention one "process" per
physical CPU and one "thread" per sandbox, which is how the exporters
lay traces out in Perfetto).

A :class:`Tracer` collects spans three ways:

* :meth:`Tracer.record_span` — a closed interval with explicit start
  and duration (the common case in a discrete-event simulator, where
  an operation's cost is *charged* while the clock stands still);
* :meth:`Tracer.open_span` / :class:`OpenSpan` — a span whose end is
  not yet known; anything recorded before it closes becomes its child;
* :meth:`Tracer.timeline` — a builder for one-instant multi-phase
  operations (the six resume steps): each ``phase`` call appends a
  child back-to-back after the previous one, so the children tile the
  parent exactly.

``NULL_TRACER`` is the shared do-nothing instance; hot paths guard all
attribute building behind ``tracer.enabled`` so an untraced run pays a
single attribute check.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Span kinds: a timed interval or a zero-duration marker.
KIND_SPAN = "span"
KIND_INSTANT = "instant"


@dataclass(slots=True)
class Span:
    """One named, attributed interval on a (pid, tid) track."""

    name: str
    start_ns: int
    duration_ns: int
    span_id: int
    parent_id: Optional[int] = None
    category: str = ""
    pid: int = 0
    tid: int = 0
    kind: str = KIND_SPAN
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def end_ns(self) -> int:
        return self.start_ns + self.duration_ns

    def __str__(self) -> str:
        detail = " ".join(f"{k}={v}" for k, v in sorted(self.attrs.items()))
        return (
            f"[{self.start_ns:>12d} +{self.duration_ns:>9d}] "
            f"{self.name} {detail}".rstrip()
        )


class OpenSpan:
    """Handle for a span whose end time is not yet known.

    While open, it sits on the tracer's span stack: spans recorded in
    the meantime become its children.  ``close`` is tolerant — it pops
    any deeper spans left open (closing them at the same end time), so
    an exception inside an instrumented region cannot corrupt the
    stack.
    """

    __slots__ = ("_tracer", "span", "_closed")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self.span = span
        self._closed = False

    @property
    def attrs(self) -> Dict[str, Any]:
        return self.span.attrs

    def close(self, end_ns: int, **attrs: Any) -> Span:
        """Finish the span at *end_ns*; merges *attrs* in."""
        if self._closed:
            return self.span
        self.span.attrs.update(attrs)
        self._tracer._close_open(self, end_ns)
        self._closed = True
        return self.span


class Timeline:
    """Builder for one-instant multi-phase operations.

    The simulated clock does not advance while a resume executes — its
    cost is charged from the cost model — so the phases are laid out
    synthetically: each :meth:`phase` starts where the previous one
    ended, and :meth:`finish` closes the root at the running cursor.
    """

    __slots__ = ("_tracer", "_root", "cursor")

    def __init__(self, tracer: "Tracer", root: OpenSpan) -> None:
        self._tracer = tracer
        self._root = root
        self.cursor = root.span.start_ns

    @property
    def root(self) -> Span:
        return self._root.span

    def phase(self, name: str, duration_ns: int, **attrs: Any) -> Span:
        """Append one child phase back-to-back after the previous one."""
        span = self._tracer.record_span(
            name,
            self.cursor,
            duration_ns,
            category=self._root.span.category,
            pid=self._root.span.pid,
            tid=self._root.span.tid,
            **attrs,
        )
        self.cursor += duration_ns
        return span

    def finish(self, **attrs: Any) -> Span:
        """Close the root so it exactly covers the recorded phases."""
        return self._root.close(self.cursor, **attrs)


class Tracer:
    """Collects spans; the exporters in :mod:`repro.obs.export` read it."""

    enabled = True

    def __init__(self, clock: Optional[Callable[[], int]] = None) -> None:
        #: Optional callable returning the current simulated time (ns),
        #: used only by the :meth:`span` context manager.
        self._clock = clock
        self.spans: List[Span] = []
        self._stack: List[OpenSpan] = []
        self._next_id = 1
        self._process_names: Dict[int, str] = {}
        self._thread_names: Dict[Tuple[int, int], str] = {}
        self._tids: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Track bookkeeping
    # ------------------------------------------------------------------
    def name_process(self, pid: int, name: str) -> None:
        self._process_names[pid] = name

    def tid_for(self, key: str, pid: int = 0, name: Optional[str] = None) -> int:
        """Intern a string track key (e.g. a sandbox id) to a stable tid.

        Registers the thread's display name under ``(pid, tid)`` so the
        exporter can label it; the same key always maps to the same tid
        regardless of pid.
        """
        tid = self._tids.get(key)
        if tid is None:
            tid = len(self._tids) + 1
            self._tids[key] = tid
        self._thread_names.setdefault((pid, tid), name or key)
        return tid

    @property
    def process_names(self) -> Dict[int, str]:
        return dict(self._process_names)

    @property
    def thread_names(self) -> Dict[Tuple[int, int], str]:
        return dict(self._thread_names)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _allocate(
        self,
        name: str,
        start_ns: int,
        duration_ns: int,
        parent_id: Optional[int],
        category: str,
        pid: int,
        tid: int,
        kind: str,
        attrs: Dict[str, Any],
    ) -> Span:
        span = Span(
            name=name,
            start_ns=start_ns,
            duration_ns=duration_ns,
            span_id=self._next_id,
            parent_id=parent_id,
            category=category,
            pid=pid,
            tid=tid,
            kind=kind,
            attrs=attrs,
        )
        self._next_id += 1
        return span

    def _current_parent_id(self) -> Optional[int]:
        return self._stack[-1].span.span_id if self._stack else None

    def record_span(
        self,
        name: str,
        start_ns: int,
        duration_ns: int,
        parent: Optional[Span] = None,
        category: str = "",
        pid: int = 0,
        tid: int = 0,
        **attrs: Any,
    ) -> Span:
        """Record a closed span.  Parents to the innermost open span
        unless *parent* is given explicitly."""
        if duration_ns < 0:
            raise ValueError(f"span {name!r}: negative duration {duration_ns}")
        parent_id = parent.span_id if parent is not None else self._current_parent_id()
        span = self._allocate(
            name, start_ns, duration_ns, parent_id, category, pid, tid,
            KIND_SPAN, attrs,
        )
        self.spans.append(span)
        return span

    def record_instant(
        self,
        name: str,
        time_ns: int,
        category: str = "",
        pid: int = 0,
        tid: int = 0,
        **attrs: Any,
    ) -> Span:
        """Record a zero-duration marker event."""
        span = self._allocate(
            name, time_ns, 0, self._current_parent_id(), category, pid, tid,
            KIND_INSTANT, attrs,
        )
        self.spans.append(span)
        return span

    def open_span(
        self,
        name: str,
        start_ns: int,
        category: str = "",
        pid: int = 0,
        tid: int = 0,
        **attrs: Any,
    ) -> OpenSpan:
        """Start a span whose end is not yet known; pushes it on the
        stack so later records nest under it until it is closed."""
        span = self._allocate(
            name, start_ns, 0, self._current_parent_id(), category, pid, tid,
            KIND_SPAN, attrs,
        )
        handle = OpenSpan(self, span)
        self._stack.append(handle)
        return handle

    def _close_open(self, handle: OpenSpan, end_ns: int) -> None:
        # Tolerant pop: close anything deeper that was left open (an
        # exception path bailed out) at the same end time.
        while self._stack:
            top = self._stack.pop()
            top.span.duration_ns = max(0, end_ns - top.span.start_ns)
            top._closed = True
            self.spans.append(top.span)
            if top is handle:
                return
        # Handle was not on the stack (already force-closed): still
        # record it rather than lose the data.
        handle.span.duration_ns = max(0, end_ns - handle.span.start_ns)
        self.spans.append(handle.span)

    def timeline(
        self,
        name: str,
        start_ns: int,
        category: str = "",
        pid: int = 0,
        tid: int = 0,
        **attrs: Any,
    ) -> Timeline:
        """Open a root span and return the phase builder for it."""
        return Timeline(
            self, self.open_span(name, start_ns, category, pid, tid, **attrs)
        )

    @contextmanager
    def span(
        self,
        name: str,
        category: str = "",
        pid: int = 0,
        tid: int = 0,
        **attrs: Any,
    ) -> Iterator[OpenSpan]:
        """Clock-timed span context manager (requires a tracer clock)."""
        if self._clock is None:
            raise RuntimeError("Tracer has no clock; use record_span/timeline")
        handle = self.open_span(name, self._clock(), category, pid, tid, **attrs)
        try:
            yield handle
        finally:
            handle.close(self._clock())

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def current_span(self) -> Optional[Span]:
        """The innermost still-open span, or None outside any span.

        This is the span context repro.check attaches to reported
        violations: a violation found inside a checked cycle names the
        cycle span it occurred under.
        """
        return self._stack[-1].span if self._stack else None

    def __len__(self) -> int:
        return len(self.spans)

    def find(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def children_of(self, span: Span) -> List[Span]:
        return sorted(
            (s for s in self.spans if s.parent_id == span.span_id),
            key=lambda s: (s.start_ns, s.span_id),
        )

    def roots(self) -> List[Span]:
        return sorted(
            (s for s in self.spans if s.parent_id is None),
            key=lambda s: (s.start_ns, s.span_id),
        )

    def clear(self) -> None:
        self.spans.clear()
        self._stack.clear()


class _NullOpenSpan(OpenSpan):
    """Open-span handle that swallows everything."""

    def __init__(self) -> None:  # no tracer, no span storage
        self._tracer = None
        self.span = Span(name="", start_ns=0, duration_ns=0, span_id=0)
        self._closed = True

    @property
    def attrs(self) -> Dict[str, Any]:
        return {}

    def close(self, end_ns: int, **attrs: Any) -> Span:
        return self.span


class _NullTimeline(Timeline):
    """Timeline that swallows every phase."""

    def __init__(self) -> None:
        self._tracer = None
        self._root = _NULL_OPEN_SPAN
        self.cursor = 0

    def phase(self, name: str, duration_ns: int, **attrs: Any) -> Span:
        return self._root.span

    def finish(self, **attrs: Any) -> Span:
        return self._root.span


class NullTracer(Tracer):
    """Do-nothing tracer: the default wired into every component."""

    enabled = False

    def record_span(self, name, start_ns, duration_ns, parent=None,
                    category="", pid=0, tid=0, **attrs):
        return _NULL_OPEN_SPAN.span

    def record_instant(self, name, time_ns, category="", pid=0, tid=0, **attrs):
        return _NULL_OPEN_SPAN.span

    def open_span(self, name, start_ns, category="", pid=0, tid=0, **attrs):
        return _NULL_OPEN_SPAN

    def timeline(self, name, start_ns, category="", pid=0, tid=0, **attrs):
        return _NULL_TIMELINE

    def tid_for(self, key, pid=0, name=None):
        return 0


_NULL_OPEN_SPAN = _NullOpenSpan()
_NULL_TIMELINE = _NullTimeline()

#: Shared do-nothing tracer; pass a real Tracer to opt in.
NULL_TRACER = NullTracer()
