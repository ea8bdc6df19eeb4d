"""In-memory span recorder and the arithmetic over its spans.

A span is ``(name, start_ns, end_ns, parent, request_id)``.  Spans are
opened and closed in stack order by the boundary wrappers in
:mod:`layers`, so a span's parent is whatever span was open when it
started.  A *root* span (a request submit) starts a new request id
unless it already sits under a span carrying one; every other span
inherits its parent's id, so all spans under one submit share it.

Self time is a span's duration minus the part of its interval its
child spans cover; coverage is the share of a wall interval covered by
top-level spans.  Both are computed after the run from the stored
spans, never on the hot path.
"""

from __future__ import annotations

import json
import time
from typing import Callable, Dict, Iterable, List, Tuple

#: no parent / no request id
NONE = -1


def covered_ns(intervals: Iterable[Tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of *intervals*, clipped to ``[lo, hi]``."""
    total = 0
    cursor = lo
    for start, end in sorted(intervals):
        start = max(start, cursor)
        end = min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


class SpanRecorder:
    """Column-oriented span store with a stack of open spans."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self._clock = clock
        self.names: List[str] = []
        self.starts: List[int] = []
        self.ends: List[int] = []
        self.parents: List[int] = []
        self.request_ids: List[int] = []
        self._stack: List[int] = []
        self._next_request = 0
        #: plain counters recorded at the same boundaries (pool hits,
        #: events executed, stream items)
        self.counts: Dict[str, int] = {}

    def open(self, name: str, root: bool = False) -> int:
        index = len(self.names)
        stack = self._stack
        parent = stack[-1] if stack else NONE
        request = self.request_ids[parent] if parent != NONE else NONE
        if root and request == NONE:
            request = self._next_request
            self._next_request += 1
        self.names.append(name)
        self.parents.append(parent)
        self.request_ids.append(request)
        self.ends.append(0)
        stack.append(index)
        self.starts.append(self._clock())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = self._clock()
        if self._stack.pop() != index:
            raise RuntimeError("span closed out of stack order")

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    # -- arithmetic ---------------------------------------------------
    def children(self) -> List[List[int]]:
        kids: List[List[int]] = [[] for _ in self.names]
        for index, parent in enumerate(self.parents):
            if parent != NONE:
                kids[parent].append(index)
        return kids

    def self_ns(self) -> List[int]:
        """Per span: duration minus the child-covered part."""
        kids = self.children()
        starts, ends = self.starts, self.ends
        out = []
        for index, children in enumerate(kids):
            start, end = starts[index], ends[index]
            inner = covered_ns(
                ((starts[c], ends[c]) for c in children), start, end
            ) if children else 0
            out.append(end - start - inner)
        return out

    def coverage(self, lo: int, hi: int) -> float:
        """Share of ``[lo, hi]`` inside top-level spans (<= 1 always)."""
        if hi <= lo:
            return 0.0
        tops = (
            (self.starts[i], self.ends[i])
            for i, parent in enumerate(self.parents)
            if parent == NONE
        )
        return covered_ns(tops, lo, hi) / (hi - lo)

    def by_name(self) -> Dict[str, Dict[str, object]]:
        """``name -> {calls, busy_ns, self_ns, durations}``."""
        selfs = self.self_ns()
        out: Dict[str, Dict[str, object]] = {}
        for index, name in enumerate(self.names):
            entry = out.get(name)
            if entry is None:
                entry = out[name] = {
                    "calls": 0, "busy_ns": 0, "self_ns": 0, "durations": []
                }
            duration = self.ends[index] - self.starts[index]
            entry["calls"] += 1
            entry["busy_ns"] += duration
            entry["self_ns"] += selfs[index]
            entry["durations"].append(duration)
        return out

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as handle:
            for index, name in enumerate(self.names):
                handle.write(json.dumps({
                    "name": name,
                    "start_ns": self.starts[index],
                    "end_ns": self.ends[index],
                    "parent": self.parents[index],
                    "request": self.request_ids[index],
                }, separators=(",", ":")) + "\n")
