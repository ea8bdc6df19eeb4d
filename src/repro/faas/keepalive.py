"""Keep-alive policies: when to unload and when to pre-load a sandbox.

One policy family serves both the warm pool
(:class:`repro.faas.pool.SandboxPool`, keyed by function name) and the
streaming replay's capacity model (:mod:`repro.faas.prewarm`, keyed by
dense function ids).  After each invocation a policy decides *when to
unload* and *when to pre-load* the sandbox:

* :class:`NoKeepAlive` — unload immediately; every re-arrival restores.
* :class:`FixedWindow` — classic fixed keep-alive (the OpenWhisk 10-min
  idiom, window configurable).
* :class:`HybridHistogram` — the Serverless-in-the-Wild (ATC'20)
  policy: a per-function idle-time histogram picks a prewarm window
  (head percentile, sandbox unloaded meanwhile) and a keep-alive (tail
  percentile), with out-of-bounds fallback to a fixed default and a
  pattern-change reset after consecutive cold misses.  Timer-triggered
  functions (~29 % of Azure's population) are its killer app: an
  hour-period function stays resident ~5 % of the time yet still hits
  the HORSE tier on every tick.

This module imports neither the replayer nor the pool, so the pool and
the platform load no trace code.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil
from typing import Dict, Hashable, List, Optional, Tuple

from repro.policyreg import PolicyRegistry
from repro.sim.units import SECOND

__all__ = [
    "IdleHistogram",
    "PolicyDecision",
    "PrewarmPolicy",
    "NoKeepAlive",
    "FixedWindow",
    "HybridHistogram",
    "PREWARM_POLICIES",
    "make_policy",
    "default_prewarm_policy",
]


# ---------------------------------------------------------------------------
# Idle-time histogram (Serverless in the Wild, §3.3)
# ---------------------------------------------------------------------------


class IdleHistogram:
    """Fixed-width idle-gap histogram with an out-of-bounds bucket.

    ATC'20 uses 1-minute bins over a 4-hour range; we default to 1-minute
    bins over 2 hours (120 bins), enough for this replayer's period range.

    Percentile queries are O(1) after the first: each percentile asked
    for keeps a nearest-rank cursor ``[pct / 100, bin, below]``, where
    ``below`` counts the observations in the bins before ``bin`` and
    ``bin == len(counts)`` means the rank lands in the OOB tail.
    :meth:`observe` moves every cursor to its new rank, stepping only
    over the bins between the old and the new position.
    """

    __slots__ = ("bin_width_ns", "counts", "oob", "total", "_cursors")

    def __init__(self, bin_width_ns: int = 60 * SECOND, bins: int = 120) -> None:
        if bin_width_ns <= 0:
            raise ValueError(f"bin width must be positive, got {bin_width_ns}")
        if bins <= 0:
            raise ValueError(f"bins must be positive, got {bins}")
        self.bin_width_ns = bin_width_ns
        self.counts = [0] * bins
        self.oob = 0
        self.total = 0
        self._cursors: Dict[float, List] = {}

    def observe(self, gap_ns: int) -> None:
        if gap_ns < 0:
            raise ValueError(f"negative idle gap {gap_ns}")
        counts = self.counts
        bins = len(counts)
        index = gap_ns // self.bin_width_ns
        if index >= bins:
            self.oob += 1
        else:
            counts[index] += 1
        total = self.total = self.total + 1
        for cursor in self._cursors.values():
            fraction, at, below = cursor
            if index < at:
                below += 1
            rank = ceil(fraction * total)
            if rank < 1:
                rank = 1
            while below >= rank:
                at -= 1
                below -= counts[at]
            while at < bins and below + counts[at] < rank:
                below += counts[at]
                at += 1
            cursor[1] = at
            cursor[2] = below

    def percentile_bin(self, pct: float) -> Optional[int]:
        """Nearest-rank bin index; ``None`` when the rank falls OOB."""
        at = self.cursor(pct)[1]
        if self.total == 0 or at == len(self.counts):
            return None
        return at

    def cursor(self, pct: float) -> List:
        """The live ``[pct / 100, bin, below]`` cursor for *pct*.

        The first call places it with one scan; :meth:`observe` and
        :meth:`reset` keep it current, so a caller may hold on to it.
        While the histogram is empty the cursor rests at bin 0, where
        the first observation's rank starts its forward step.
        """
        cursor = self._cursors.get(pct)
        if cursor is None:
            counts = self.counts
            fraction = pct / 100.0
            at = below = 0
            if self.total:
                rank = max(1, ceil(fraction * self.total))
                while at < len(counts) and below + counts[at] < rank:
                    below += counts[at]
                    at += 1
            cursor = self._cursors[pct] = [fraction, at, below]
        return cursor

    def lower_edge_ns(self, bin_index: int) -> int:
        return bin_index * self.bin_width_ns

    def upper_edge_ns(self, bin_index: int) -> int:
        return (bin_index + 1) * self.bin_width_ns

    def reset(self) -> None:
        """Forget everything (the pattern-change escape hatch)."""
        for index in range(len(self.counts)):
            self.counts[index] = 0
        self.oob = 0
        self.total = 0
        for cursor in self._cursors.values():
            cursor[1] = cursor[2] = 0


# ---------------------------------------------------------------------------
# Policies
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PolicyDecision:
    """What to do with a sandbox after an invocation completes.

    ``prewarm_ns is None`` — stay resident; unload ``keep_alive_ns``
    after the invocation ends (0 = unload immediately).

    ``prewarm_ns = P`` — unload at completion, re-load the sandbox
    ``P`` ns later (speculatively, off the critical path), then unload
    again ``keep_alive_ns`` after that load if nothing arrived.
    """

    prewarm_ns: Optional[int]
    keep_alive_ns: int


class PrewarmPolicy:
    """Per-function lifecycle decisions.  Subclasses own all state.

    ``fn`` is any hashable function key: the replayer passes its dense
    int ids, the warm pool (:class:`repro.faas.pool.SandboxPool`) passes
    function names.
    """

    name = "abstract"

    def on_arrival(
        self, fn: Hashable, gap_ns: Optional[int], warm: Optional[bool]
    ) -> PolicyDecision:
        """One arrival's whole policy step, and the decision after it.

        *gap_ns* is the idle gap since the previous completion (``None``
        for a first arrival or a concurrent hit); *warm* says whether a
        resident sandbox served it (``None`` for a concurrent hit).  The
        replay's capacity cell makes exactly this one call per arrival.
        """
        if gap_ns is not None:
            self.observe_gap(fn, gap_ns)
        if warm is not None:
            self.record_outcome(fn, warm)
        return self.decision(fn)

    def decision(self, fn: Hashable) -> PolicyDecision:
        raise NotImplementedError

    def observe_gap(self, fn: Hashable, gap_ns: int) -> None:
        """An arrival came *gap_ns* after the previous completion."""

    def record_outcome(self, fn: Hashable, warm: bool) -> None:
        """Was the (non-concurrent) arrival served from a resident sandbox?"""


class NoKeepAlive(PrewarmPolicy):
    """Baseline: tear down at completion; every re-arrival restores."""

    name = "none"
    _DECISION = PolicyDecision(prewarm_ns=None, keep_alive_ns=0)

    def decision(self, fn: Hashable) -> PolicyDecision:
        return self._DECISION


class FixedWindow(PrewarmPolicy):
    """Classic fixed keep-alive: resident for *window_ns* after each run."""

    def __init__(self, window_ns: int) -> None:
        if window_ns <= 0:
            raise ValueError(f"keep-alive window must be positive, got {window_ns}")
        self.window_ns = window_ns
        self.name = f"fixed-{window_ns // SECOND}s"
        self._decision = PolicyDecision(prewarm_ns=None, keep_alive_ns=window_ns)

    def decision(self, fn: Hashable) -> PolicyDecision:
        return self._decision


class HybridHistogram(PrewarmPolicy):
    """Serverless-in-the-Wild hybrid policy on per-function histograms.

    With enough in-range observations, the idle-gap histogram yields:

    * prewarm window = ``head_margin x lower_edge(p[head_pct])`` — the
      sandbox is unloaded for this long after each completion (a head
      at bin 0 means gaps shorter than one bin exist: stay resident);
    * keep-alive = ``tail_margin x upper_edge(p[tail_pct]) - prewarm`` —
      how long the (re)loaded sandbox waits for the next arrival.

    Fallbacks: too few observations or too many out-of-bounds gaps ⇒
    plain fixed keep-alive at ``default_keep_ns``.  After
    ``pattern_miss_limit`` consecutive cold misses the function's
    histogram resets (the ATC'20 pattern-change escape hatch).
    """

    name = "hybrid"

    def __init__(
        self,
        bin_width_ns: int = 60 * SECOND,
        bins: int = 120,
        min_observations: int = 8,
        head_pct: float = 5.0,
        tail_pct: float = 99.0,
        head_margin: float = 0.85,
        tail_margin: float = 1.15,
        oob_threshold: float = 0.5,
        pattern_miss_limit: int = 4,
        default_keep_ns: int = 600 * SECOND,
    ) -> None:
        # The histogram is built lazily on the first gap, so check its
        # shape here: a bad spec must fail before the replay starts.
        if bin_width_ns <= 0:
            raise ValueError(f"bin_width_ns must be positive, got {bin_width_ns}")
        if bins <= 0:
            raise ValueError(f"bins must be positive, got {bins}")
        if not 0 < head_pct <= tail_pct <= 100:
            raise ValueError(f"need 0 < head <= tail <= 100, got {head_pct}, {tail_pct}")
        if not 0 < head_margin <= 1:
            raise ValueError(f"head_margin must be in (0, 1], got {head_margin}")
        if tail_margin < 1:
            raise ValueError(f"tail_margin must be >= 1, got {tail_margin}")
        if min_observations < 1:
            raise ValueError(f"min_observations must be >= 1, got {min_observations}")
        if pattern_miss_limit < 1:
            raise ValueError(f"pattern_miss_limit must be >= 1, got {pattern_miss_limit}")
        if not 0 <= oob_threshold <= 1:
            raise ValueError(f"oob_threshold must be in [0, 1], got {oob_threshold}")
        if default_keep_ns < 0:
            # A negative keep-alive would unload before the run ends.
            raise ValueError(f"default_keep_ns must be >= 0, got {default_keep_ns}")
        self.bin_width_ns = bin_width_ns
        self.bins = bins
        self.min_observations = min_observations
        self.head_pct = head_pct
        self.tail_pct = tail_pct
        self.head_margin = head_margin
        self.tail_margin = tail_margin
        self.oob_threshold = oob_threshold
        self.pattern_miss_limit = pattern_miss_limit
        self.default_keep_ns = default_keep_ns
        self._fallback = PolicyDecision(prewarm_ns=None, keep_alive_ns=default_keep_ns)
        #: per function: its histogram and that histogram's head and
        #: tail cursors, read directly on every decision
        self._functions: Dict[Hashable, Tuple[IdleHistogram, List, List]] = {}
        #: one decision per ``(head_bin, tail_bin)`` pair: bin width and
        #: margins are fixed per instance, so the pair decides the window
        self._windows: Dict[Tuple[int, int], PolicyDecision] = {}
        self._misses: Dict[Hashable, int] = {}

    def histogram(self, fn: Hashable) -> IdleHistogram:
        entry = self._functions.get(fn)
        if entry is None:
            hist = IdleHistogram(self.bin_width_ns, self.bins)
            entry = self._functions[fn] = (
                hist, hist.cursor(self.head_pct), hist.cursor(self.tail_pct)
            )
        return entry[0]

    def on_arrival(
        self, fn: Hashable, gap_ns: Optional[int], warm: Optional[bool]
    ) -> PolicyDecision:
        entry = self._functions.get(fn)
        if gap_ns is not None:
            if entry is None:
                self.histogram(fn)
                entry = self._functions[fn]
            entry[0].observe(gap_ns)
        if warm is not None:
            if warm:
                self._misses[fn] = 0
            else:
                misses = self._misses.get(fn, 0) + 1
                if misses >= self.pattern_miss_limit:
                    # Pattern changed: the histogram predicts the *old*
                    # behaviour (that's why we keep missing) — start over.
                    if entry is not None:
                        entry[0].reset()
                    misses = 0
                self._misses[fn] = misses
        if entry is None:
            return self._fallback
        hist, head, tail = entry
        total = hist.total
        if total < self.min_observations:
            return self._fallback
        if hist.oob / total > self.oob_threshold:
            # The function's gaps mostly exceed the histogram range —
            # its percentiles say nothing useful.
            return self._fallback
        bins = (head[1], tail[1])
        window = self._windows.get(bins)
        if window is None:
            window = self._windows[bins] = self._window(hist, *bins)
        return window

    def observe_gap(self, fn: Hashable, gap_ns: int) -> None:
        self.on_arrival(fn, gap_ns, None)

    def record_outcome(self, fn: Hashable, warm: bool) -> None:
        self.on_arrival(fn, None, warm)

    def decision(self, fn: Hashable) -> PolicyDecision:
        return self.on_arrival(fn, None, None)

    def _window(
        self, hist: IdleHistogram, head_bin: int, tail_bin: int
    ) -> PolicyDecision:
        if tail_bin == self.bins:
            # The tail's rank lands in the OOB tail (the head's can only
            # if the tail's does).
            return self._fallback
        prewarm = round(self.head_margin * hist.lower_edge_ns(head_bin))
        tail = round(self.tail_margin * hist.upper_edge_ns(tail_bin))
        if prewarm <= 0:
            # Head in bin 0: sub-bin gaps exist, keep the sandbox warm.
            return PolicyDecision(
                prewarm_ns=None, keep_alive_ns=max(tail, hist.bin_width_ns)
            )
        keep = max(tail - prewarm, hist.bin_width_ns)
        return PolicyDecision(prewarm_ns=prewarm, keep_alive_ns=keep)


#: The prewarm policy axis on the shared registry convention
#: (see :mod:`repro.policyreg`): string specs, ``register`` on the
#: registry, and the ``REPRO_PREWARM_POLICY`` env var.
PREWARM_POLICIES = PolicyRegistry(
    axis="prewarm", env_var="REPRO_PREWARM_POLICY", builtin="hybrid"
)


def _make_none(spec: str) -> PrewarmPolicy:
    return NoKeepAlive()


def _make_hybrid(spec: str) -> PrewarmPolicy:
    if spec == "hybrid":
        return HybridHistogram()
    try:
        bin_s = int(spec[len("hybrid-"):])
    except ValueError:
        raise ValueError(f"bad hybrid bin-width spec {spec!r}") from None
    policy = HybridHistogram(bin_width_ns=bin_s * SECOND)
    policy.name = spec
    return policy


def _make_fixed(spec: str) -> PrewarmPolicy:
    # "fixed" with no window is a spelling error, not a default.
    param = spec[len("fixed-"):] if spec.startswith("fixed-") else ""
    try:
        window_s = int(param)
    except ValueError:
        raise ValueError(f"bad fixed keep-alive spec {spec!r}") from None
    return FixedWindow(window_s * SECOND)


PREWARM_POLICIES.register("none", _make_none)
PREWARM_POLICIES.register(
    "hybrid", _make_hybrid, syntax="hybrid[-<bin_seconds>]", parameterized=True
)
PREWARM_POLICIES.register(
    "fixed", _make_fixed, syntax="fixed-<seconds>", parameterized=True
)


def make_policy(spec: str) -> PrewarmPolicy:
    """Build a policy from its CLI spelling.

    ``none`` | ``fixed-<seconds>`` (e.g. ``fixed-600``) | ``hybrid``
    | ``hybrid-<bin_seconds>`` (histogram resolution override, e.g.
    ``hybrid-10`` for 10 s bins when replaying short synthetic periods).
    A factory (not instances) because policies carry per-function state
    and must be constructed fresh inside each worker process.
    """
    return PREWARM_POLICIES.make(spec)


def default_prewarm_policy() -> str:
    """Effective default: ``REPRO_PREWARM_POLICY`` > builtin."""
    return PREWARM_POLICIES.default()
