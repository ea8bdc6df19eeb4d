"""Sandbox-lifecycle policies over a memory-capacity model.

The streaming replayer (:mod:`repro.traces.replay`) makes a question
meaningful that the small-trace pool studies couldn't ask: **given a
host memory budget, which sandboxes should stay resident?**  This
module answers it with pluggable policies over a snapshot-tiering
capacity model:

* a **resident** (HORSE-paused) sandbox resumes in ~132 ns — the
  paper's pausable fast path (:class:`repro.hypervisor.costs.CostModel`
  ``fast_fixed + p2sm_merge(1) + coalesced_update``);
* an evicted-but-snapshotted sandbox restores in ~1300 µs (FaaSnap-style,
  "How Low Can You Go");
* a never-seen function pays the full ~1.5 s cold boot (first touch
  captures the snapshot).

Policies decide, after each invocation, *when to unload* and *when to
pre-load* the sandbox:

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

Memory pressure: resident sandboxes occupy an LRU; loads beyond the
budget evict the least-recently-used *idle* sandbox.  A sandbox with an
invocation in flight is **never** evicted (asserted by tests and a
recorded-violation guard); arrival-driven loads may overcommit the
budget rather than fail, speculative prewarm loads fail instead.

Determinism: cells partition functions by ``index % groups`` (a model
parameter); workers (``shards``) only distribute cells, so same seed ⇒
byte-identical output for any worker count — PR 7's contract.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter, OrderedDict
from dataclasses import dataclass, field
from math import ceil
from typing import Dict, Hashable, List, Optional, Tuple

from repro.faas.autoscaler import PoolTargetTracker
from repro.hypervisor.costs import CostModel, cost_model_for
from repro.policyreg import PolicyRegistry
from repro.sim.sharding import run_cells
from repro.sim.units import SECOND, to_microseconds
from repro.traces.replay import ReplayConfig, ReplayStats, merged_stream

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
    "PrewarmConfig",
    "CellStats",
    "PrewarmResult",
    "run_cell",
    "run_replay",
    "render_replay",
    "counter_percentile_ns",
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

    def oob_fraction(self) -> float:
        return self.oob / self.total if self.total else 0.0

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

    def observe_gap(self, fn: Hashable, gap_ns: int) -> None:
        self.histogram(fn).observe(gap_ns)

    def record_outcome(self, fn: Hashable, warm: bool) -> None:
        if warm:
            self._misses[fn] = 0
            return
        misses = self._misses.get(fn, 0) + 1
        if misses >= self.pattern_miss_limit:
            # Pattern changed: the histogram predicts the *old* behaviour
            # (that's why we keep missing) — start over.
            entry = self._functions.get(fn)
            if entry is not None:
                entry[0].reset()
            misses = 0
        self._misses[fn] = misses

    def decision(self, fn: Hashable) -> PolicyDecision:
        entry = self._functions.get(fn)
        if entry is None:
            return self._fallback
        hist, head, tail = entry
        if hist.total < self.min_observations:
            return self._fallback
        if hist.oob_fraction() > self.oob_threshold:
            # The function's gaps mostly exceed the histogram range —
            # its percentiles say nothing useful.
            return self._fallback
        bins = (head[1], tail[1])
        window = self._windows.get(bins)
        if window is None:
            window = self._windows[bins] = self._window(hist, *bins)
        return window

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


# ---------------------------------------------------------------------------
# Capacity-model cell simulator
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PrewarmConfig:
    """One replay-under-policy run (picklable; workers rebuild policies)."""

    replay: ReplayConfig = field(default_factory=ReplayConfig)
    #: prewarm-policy spec; defaults to the process default
    #: (``REPRO_PREWARM_POLICY`` env, else ``hybrid``)
    policy: str = field(default_factory=default_prewarm_policy)
    memory_budget_mb: float = 4096.0
    sandbox_mb: float = 128.0
    exec_ns: int = 1_000_000          # 1 ms service time
    groups: int = 1                   # model parameter: capacity cells
    platform: str = "firecracker"
    #: latency histogram starts here (steady state): first-touch cold
    #: boots and unfilled histograms are setup, not the policy's fault
    warmup_s: float = 0.0
    #: protect hot functions from pressure eviction using the
    #: autoscaler's pool-target tracker
    #: (:class:`repro.faas.autoscaler.PoolTargetTracker`): a function
    #: whose Little's-law target is >= 1 sandbox is skipped by the LRU
    #: victim scan.  Off by default — it changes eviction order, and
    #: the policy-frontier studies pin the unprotected behaviour.
    autoscale_protect: bool = False
    #: tracker rate window (with autoscale_protect)
    protect_window_s: float = 60.0
    #: tracker safety factor over Little's law (with autoscale_protect)
    protect_headroom: float = 1.5

    def __post_init__(self) -> None:
        if not 0 < self.memory_budget_mb < math.inf:
            raise ValueError(
                f"memory_budget_mb must be positive and finite, "
                f"got {self.memory_budget_mb}"
            )
        if not 0 < self.sandbox_mb < math.inf:
            raise ValueError(
                f"sandbox_mb must be positive and finite, got {self.sandbox_mb}"
            )
        if self.exec_ns < 0:
            raise ValueError(f"exec_ns must be >= 0, got {self.exec_ns}")
        if self.groups < 1:
            raise ValueError(f"groups must be >= 1, got {self.groups}")
        if not 0 <= self.warmup_s < self.replay.duration_s:
            raise ValueError(
                f"warmup_s must be in [0, duration), got {self.warmup_s}"
            )
        if self.protect_window_s <= 0:
            raise ValueError(
                f"protect_window_s must be positive, got {self.protect_window_s}"
            )
        if self.protect_headroom < 1.0:
            raise ValueError(
                f"protect_headroom must be >= 1.0, got {self.protect_headroom}"
            )
        make_policy(self.policy)      # validate the spelling up front


class _FnState:
    """Per-function sandbox state inside one cell."""

    __slots__ = (
        "resident", "has_snapshot", "busy_until", "last_end",
        "unload_at", "load_at", "post_load_keep_ns",
    )

    def __init__(self) -> None:
        self.resident = False
        self.has_snapshot = False
        self.busy_until = -1
        self.last_end = -1
        self.unload_at: Optional[int] = None
        self.load_at: Optional[int] = None
        self.post_load_keep_ns = 0


_LOAD, _UNLOAD = 0, 1


@dataclass
class CellStats:
    """Everything one cell reports (plain data: crosses the worker pool)."""

    group: int
    budget_mb: float
    events: int = 0
    warmup_events: int = 0            # arrivals before the measurement window
    concurrent_hits: int = 0          # arrival while already executing
    horse_hits: int = 0               # resident, paused -> 132 ns resume
    restores: int = 0                 # snapshot restore, ~1300 us
    cold_boots: int = 0               # first touch, ~1.5 s
    prewarm_loads: int = 0
    prewarm_failed: int = 0
    expiry_unloads: int = 0
    pressure_evictions: int = 0
    overcommit_loads: int = 0
    protected_skips: int = 0          # victims spared by autoscale_protect
    peak_resident_mb: float = 0.0
    peak_lifecycle_heap: int = 0
    peak_buffered: int = 0            # replayer merge ceiling (<= functions)
    exhausted_streams: int = 0
    latency_counts: Dict[int, int] = field(default_factory=dict)
    violations: List[str] = field(default_factory=list)


class _Cell:
    """One capacity cell: a function subset under one policy instance."""

    def __init__(self, config: PrewarmConfig, group: int) -> None:
        self.config = config
        self.group = group
        self.policy = make_policy(config.policy)
        costs: CostModel = cost_model_for(config.platform)
        self.horse_resume_ns = round(
            costs.fast_fixed_ns
            + costs.p2sm_merge_cost_ns(1)
            + costs.coalesced_update_ns
        )
        self.restore_ns = costs.restore_ns
        self.cold_ns = costs.cold_start_ns
        self.exec_ns = config.exec_ns
        self.sandbox_mb = config.sandbox_mb
        self.budget_mb = config.memory_budget_mb / config.groups
        self.warmup_ns = round(config.warmup_s * SECOND)
        self.states: Dict[int, _FnState] = {}
        #: per-function Little's-law trackers (autoscale_protect only);
        #: None keeps the legacy victim scan entirely tracker-free
        self.trackers: Optional[Dict[int, "PoolTargetTracker"]] = (
            {} if config.autoscale_protect else None
        )
        self.protect_window_ns = round(config.protect_window_s * SECOND)
        self.lru: "OrderedDict[int, None]" = OrderedDict()
        self.lifecycle: List[Tuple[int, int, int]] = []
        self._compact_at = 1024
        self.latency: Counter = Counter()
        self.stats = CellStats(group=group, budget_mb=self.budget_mb)

    # -- memory ----------------------------------------------------------

    def _free_for_load(self, now: int, strict: bool) -> bool:
        """Make room for one sandbox, evicting idle LRU victims.

        ``strict`` loads (speculative prewarms) fail when nothing is
        evictable; arrival loads overcommit instead — a request must
        never be refused memory the simulation can model as borrowed.
        An in-flight sandbox (``busy_until > now``) is never a victim.
        """
        need = self.sandbox_mb
        trackers = self.trackers
        while len(self.lru) * need + need > self.budget_mb:
            victim = None
            for fn in self.lru:               # oldest first
                if self.states[fn].busy_until > now:
                    continue
                if trackers is not None:
                    tracker = trackers.get(fn)
                    if tracker is not None and tracker.target(now) >= 1:
                        # The autoscaler still wants a warm sandbox for
                        # this function — spare it, keep scanning.
                        self.stats.protected_skips += 1
                        continue
                victim = fn
                break
            if victim is None:
                if strict:
                    return False
                self.stats.overcommit_loads += 1
                return True
            self._evict(victim)
        return True

    def _evict(self, fn: int) -> None:
        state = self.states[fn]
        if not state.resident:
            self.stats.violations.append(f"evict non-resident fn {fn}")
        state.resident = False
        # A HORSE-paused sandbox's state is snapshot-backed; eviction
        # demotes it to the restore tier, never back to cold.
        state.has_snapshot = True
        state.unload_at = None
        del self.lru[fn]
        self.stats.pressure_evictions += 1

    def _track_peaks(self) -> None:
        stats = self.stats
        mb = len(self.lru) * self.sandbox_mb
        if mb > stats.peak_resident_mb:
            stats.peak_resident_mb = mb
        if len(self.lifecycle) > stats.peak_lifecycle_heap:
            stats.peak_lifecycle_heap = len(self.lifecycle)

    # -- lifecycle timers (lazy-cancel heap + compaction) ----------------

    def _schedule(self, state: _FnState, when: int, kind: int, fn: int) -> None:
        if kind == _UNLOAD:
            state.unload_at = when
        else:
            state.load_at = when
        heapq.heappush(self.lifecycle, (when, kind, fn))
        # Lazy cancellation: stale entries are dropped on pop.  Compact
        # when stale entries dominate so the heap stays O(live timers).
        # The threshold doubles after each compaction so the O(states)
        # live-timer count amortizes to O(1) per schedule.
        if len(self.lifecycle) > self._compact_at:
            if len(self.lifecycle) > 4 * self._live_timers():
                self._compact()
            self._compact_at = max(1024, 2 * len(self.lifecycle))

    def _live_timers(self) -> int:
        return sum(
            (state.unload_at is not None) + (state.load_at is not None)
            for state in self.states.values()
        )

    def _compact(self) -> None:
        rebuilt = []
        for fn, state in self.states.items():
            if state.unload_at is not None:
                rebuilt.append((state.unload_at, _UNLOAD, fn))
            if state.load_at is not None:
                rebuilt.append((state.load_at, _LOAD, fn))
        heapq.heapify(rebuilt)
        self.lifecycle = rebuilt

    def _drain_lifecycle(self, upto: int) -> None:
        heap = self.lifecycle
        while heap and heap[0][0] <= upto:
            when, kind, fn = heapq.heappop(heap)
            state = self.states[fn]
            if kind == _UNLOAD:
                if state.unload_at != when:
                    continue              # superseded or cancelled
                state.unload_at = None
                self._expire(when, fn)
            else:
                if state.load_at != when:
                    continue
                state.load_at = None
                self._prewarm_load(when, fn)

    def _expire(self, now: int, fn: int) -> None:
        state = self.states[fn]
        if not state.resident:
            return
        if state.busy_until > now:
            # Unloads are always (re)scheduled from the latest completion
            # time, so an in-flight expiry means the bookkeeping broke.
            self.stats.violations.append(
                f"unload while in flight: fn {fn} at {now} busy until {state.busy_until}"
            )
            return
        state.resident = False
        state.has_snapshot = True
        del self.lru[fn]
        self.stats.expiry_unloads += 1

    def _prewarm_load(self, now: int, fn: int) -> None:
        state = self.states[fn]
        if state.resident:
            return                        # an arrival beat the timer
        if not self._free_for_load(now, strict=True):
            self.stats.prewarm_failed += 1
            return
        state.resident = True
        self.lru[fn] = None
        self.stats.prewarm_loads += 1
        self._schedule(state, now + state.post_load_keep_ns, _UNLOAD, fn)
        self._track_peaks()

    # -- arrivals --------------------------------------------------------

    def on_arrival(self, now: int, fn: int) -> None:
        lifecycle = self.lifecycle
        if lifecycle and lifecycle[0][0] <= now:
            self._drain_lifecycle(now)
        state = self.states.get(fn)
        if state is None:
            state = self.states[fn] = _FnState()
        stats = self.stats
        stats.events += 1
        trackers = self.trackers
        if trackers is not None:
            tracker = trackers.get(fn)
            if tracker is None:
                tracker = trackers[fn] = PoolTargetTracker(
                    window_ns=self.protect_window_ns,
                    expected_busy_ns=max(1, self.exec_ns),
                    headroom=self.config.protect_headroom,
                    min_pool=0,
                    max_pool=1,
                )
            tracker.observe(now)

        policy = self.policy
        busy_until = state.busy_until
        if busy_until > now:
            # Sandbox is executing: the invocation piggybacks, no
            # init latency (and no idle gap to observe).
            init_ns = 0
            stats.concurrent_hits += 1
        else:
            if state.last_end >= 0:
                policy.observe_gap(fn, now - state.last_end)
            if state.resident:
                init_ns = self.horse_resume_ns
                stats.horse_hits += 1
                policy.record_outcome(fn, True)
            else:
                if state.has_snapshot:
                    init_ns = self.restore_ns
                    stats.restores += 1
                else:
                    init_ns = self.cold_ns
                    stats.cold_boots += 1
                policy.record_outcome(fn, False)
                self._free_for_load(now, strict=False)
                state.resident = True
                state.has_snapshot = True     # boot/restore leaves a snapshot
                self.lru[fn] = None
        self.lru.move_to_end(fn)
        if now >= self.warmup_ns:
            self.latency[init_ns] += 1
        else:
            stats.warmup_events += 1

        end = now + init_ns + self.exec_ns
        if busy_until > end:
            end = busy_until
        state.busy_until = state.last_end = end

        decision = policy.decision(fn)
        if decision.prewarm_ns is None:
            state.load_at = None          # cancel any pending prewarm
            self._schedule(state, end + decision.keep_alive_ns, _UNLOAD, fn)
        else:
            state.post_load_keep_ns = decision.keep_alive_ns
            self._schedule(state, end, _UNLOAD, fn)
            self._schedule(state, end + decision.prewarm_ns, _LOAD, fn)
        mb = len(self.lru) * self.sandbox_mb
        if mb > stats.peak_resident_mb:
            stats.peak_resident_mb = mb
        if len(self.lifecycle) > stats.peak_lifecycle_heap:
            stats.peak_lifecycle_heap = len(self.lifecycle)

    def finish(self) -> CellStats:
        self.stats.latency_counts = dict(self.latency)
        return self.stats


def cell_indices(config: PrewarmConfig, group: int) -> List[int]:
    """Functions owned by *group*: ``index % groups == group``."""
    return list(range(group, config.replay.functions, config.groups))


def run_cell(config: PrewarmConfig, group: int) -> CellStats:
    """Run one cell to completion — a pure function of (config, group)."""
    if not 0 <= group < config.groups:
        raise ValueError(f"group {group} out of range for {config.groups}")
    cell = _Cell(config, group)
    replay_stats = ReplayStats()
    for when, fn, _seq in merged_stream(
        config.replay, replay_stats, cell_indices(config, group)
    ):
        cell.on_arrival(when, fn)
    stats = cell.finish()
    stats.peak_buffered = replay_stats.peak_buffered
    stats.exhausted_streams = replay_stats.exhausted_streams
    return stats


@dataclass
class PrewarmResult:
    """All cells of one replay-under-policy run, merged in group order."""

    config: PrewarmConfig
    cells: List[CellStats] = field(default_factory=list)

    @property
    def events(self) -> int:
        return sum(cell.events for cell in self.cells)

    def latency_counts(self) -> Dict[int, int]:
        merged: Counter = Counter()
        for cell in self.cells:
            merged.update(cell.latency_counts)
        return dict(merged)

    def percentile_us(self, pct: float) -> float:
        return to_microseconds(counter_percentile_ns(self.latency_counts(), pct))

    def total(self, field_name: str) -> int:
        return sum(getattr(cell, field_name) for cell in self.cells)

    def violations(self) -> List[str]:
        out: List[str] = []
        for cell in self.cells:
            out.extend(cell.violations)
        return out


def counter_percentile_ns(counts: Dict[int, int], pct: float) -> int:
    """Nearest-rank percentile over a {latency_ns: count} histogram.

    Exact (not interpolated): tier latencies are discrete, and an
    interpolated value between 132 ns and 1300 µs would name a latency
    no request ever saw.
    """
    if not 0 <= pct <= 100:
        raise ValueError(f"percentile must be in [0, 100], got {pct}")
    total = sum(counts.values())
    if total == 0:
        return 0
    rank = max(1, math.ceil(pct / 100.0 * total))
    seen = 0
    for value in sorted(counts):
        seen += counts[value]
        if seen >= rank:
            return value
    raise AssertionError("unreachable: rank exceeds total")


def run_replay(
    config: Optional[PrewarmConfig] = None,
    shards: int = 1,
    parallel: bool = True,
) -> PrewarmResult:
    """Replay the full trace under the configured policy.

    ``groups`` (in *config*) is the model: how many capacity cells the
    host memory is split into.  ``shards`` is purely an execution knob
    distributing cells over worker processes; results are merged in
    group order, so output is byte-identical for any worker count.
    """
    config = config or PrewarmConfig()
    # ``run_cell`` is looked up at call time, so a patched module
    # global (boundary tracing wraps it) is the one that runs.
    cells = run_cells(
        run_cell, [(config, group) for group in range(config.groups)],
        shards, parallel,
    )
    return PrewarmResult(config=config, cells=cells)


def render_replay(result: PrewarmResult) -> str:
    """Fixed-width, byte-stable summary (worker-count-free, like PR 7)."""
    config = result.config
    replay = config.replay
    counts = result.latency_counts()
    lines = [
        "Streaming trace replay — prewarm policy study",
        f"  functions        {replay.functions}",
        f"  duration         {replay.duration_s:.0f} s",
        f"  seed             {replay.seed}",
        f"  policy           {config.policy}",
        f"  memory budget    {config.memory_budget_mb:.0f} MB"
        f" ({config.groups} cell(s) x {config.memory_budget_mb / config.groups:.0f} MB)",
        f"  sandbox size     {config.sandbox_mb:.0f} MB",
        "",
        f"  events           {result.events}",
        f"  merge peak       {result.total('peak_buffered')}"
        f" buffered (<= {replay.functions} functions)",
        "",
        "  tier                        count",
        f"  warm (concurrent)     {result.total('concurrent_hits'):>11}",
        f"  HORSE resume          {result.total('horse_hits'):>11}",
        f"  snapshot restore      {result.total('restores'):>11}",
        f"  cold boot             {result.total('cold_boots'):>11}",
        "",
        f"  prewarm loads    {result.total('prewarm_loads')}"
        f" (failed {result.total('prewarm_failed')})",
        f"  expiry unloads   {result.total('expiry_unloads')}",
        f"  evictions        {result.total('pressure_evictions')}"
        f" (overcommit loads {result.total('overcommit_loads')})",
        f"  peak resident    {sum(c.peak_resident_mb for c in result.cells):.0f} MB",
        "",
        f"  init latency (us) over {sum(counts.values())} arrivals"
        f" (warmup {config.warmup_s:.0f} s excluded {result.total('warmup_events')})",
        f"    p50            {to_microseconds(counter_percentile_ns(counts, 50.0)):>12.3f}",
        f"    p95            {to_microseconds(counter_percentile_ns(counts, 95.0)):>12.3f}",
        f"    p99            {to_microseconds(counter_percentile_ns(counts, 99.0)):>12.3f}",
        f"    p99.9          {to_microseconds(counter_percentile_ns(counts, 99.9)):>12.3f}",
        "",
        f"  invariant violations: {len(result.violations())}",
    ]
    return "\n".join(lines)
