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

The keep-alive policies (:mod:`repro.faas.keepalive`: ``none``,
``fixed-<s>``, ``hybrid``) decide, after each invocation, *when to
unload* and *when to pre-load* the sandbox.

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
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.faas.keepalive import default_prewarm_policy, make_policy
from repro.hypervisor.costs import CostModel, cost_model_for
from repro.sim.sharding import run_cells
from repro.sim.units import SECOND, to_microseconds
from repro.traces.replay import ReplayConfig, ReplayStats, merged_stream

if TYPE_CHECKING:
    from repro.faas.autoscaler import PoolTargetTracker

__all__ = [
    "PrewarmConfig",
    "CellStats",
    "PrewarmResult",
    "run_cell",
    "run_replay",
    "render_replay",
    "counter_percentile_ns",
]


# ---------------------------------------------------------------------------
# Capacity-model cell simulator
# ---------------------------------------------------------------------------


#: Service time of every replayed invocation (1 ms).
EXEC_NS = 1_000_000


@dataclass(frozen=True)
class PrewarmConfig:
    """One replay-under-policy run (picklable; workers rebuild policies)."""

    replay: ReplayConfig = field(default_factory=ReplayConfig)
    #: prewarm-policy spec; defaults to the process default
    #: (``REPRO_PREWARM_POLICY`` env, else ``hybrid``)
    policy: str = field(default_factory=default_prewarm_policy)
    memory_budget_mb: float = 4096.0
    sandbox_mb: float = 128.0
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
    peak_resident_mb: float = 0.0     # peak resident count x sandbox_mb
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
        #: most sandboxes resident at once (MB only in :meth:`finish`)
        self.peak_resident = 0
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

    # -- lifecycle timers (lazy-cancel heap + compaction) ----------------
    #
    # A timer is armed by setting ``state.unload_at`` / ``state.load_at``
    # and pushing ``(when, kind, fn)``; every push is followed by the
    # compaction check ``len(self.lifecycle) > self._compact_at``.

    def _maybe_compact(self) -> None:
        """The heap outgrew its threshold: compact if stale entries dominate.

        Lazy cancellation: stale entries are dropped on pop.  Compact
        when they dominate so the heap stays O(live timers).  The
        threshold doubles after each check so the O(states) live-timer
        count amortizes to O(1) per push.
        """
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
        when = state.unload_at = now + state.post_load_keep_ns
        heapq.heappush(self.lifecycle, (when, _UNLOAD, fn))
        depth = len(self.lifecycle)
        if depth > self._compact_at:
            self._maybe_compact()
            depth = len(self.lifecycle)
        if depth > self.stats.peak_lifecycle_heap:
            self.stats.peak_lifecycle_heap = depth
        resident = len(self.lru)
        if resident > self.peak_resident:
            self.peak_resident = resident

    # -- arrivals --------------------------------------------------------

    def on_arrival(self, now: int, fn: int) -> None:
        lifecycle = self.lifecycle
        if lifecycle and lifecycle[0][0] <= now:
            self._drain_lifecycle(now)
            lifecycle = self.lifecycle    # a compaction may have rebuilt it
        state = self.states.get(fn)
        if state is None:
            state = self.states[fn] = _FnState()
        stats = self.stats
        stats.events += 1
        trackers = self.trackers
        if trackers is not None:
            tracker = trackers.get(fn)
            if tracker is None:
                # Imported here: only autoscale_protect builds trackers,
                # and a replay without it never loads the autoscaler.
                from repro.faas.autoscaler import PoolTargetTracker

                tracker = trackers[fn] = PoolTargetTracker(
                    window_ns=self.protect_window_ns,
                    expected_busy_ns=EXEC_NS,
                    headroom=self.config.protect_headroom,
                    min_pool=0,
                    max_pool=1,
                )
            tracker.observe(now)

        busy_until = state.busy_until
        if busy_until > now:
            # Sandbox is executing: the invocation piggybacks, no
            # init latency (and no idle gap to observe).
            init_ns = 0
            stats.concurrent_hits += 1
            decision = self.policy.on_arrival(fn, None, None)
        else:
            last_end = state.last_end
            warm = state.resident
            decision = self.policy.on_arrival(
                fn, now - last_end if last_end >= 0 else None, warm
            )
            if warm:
                init_ns = self.horse_resume_ns
                stats.horse_hits += 1
            else:
                if state.has_snapshot:
                    init_ns = self.restore_ns
                    stats.restores += 1
                else:
                    init_ns = self.cold_ns
                    stats.cold_boots += 1
                self._free_for_load(now, strict=False)
                state.resident = True
                state.has_snapshot = True     # boot/restore leaves a snapshot
                self.lru[fn] = None
        lru = self.lru
        lru.move_to_end(fn)
        if now >= self.warmup_ns:
            self.latency[init_ns] += 1
        else:
            stats.warmup_events += 1

        end = now + init_ns + EXEC_NS
        if busy_until > end:
            end = busy_until
        state.busy_until = state.last_end = end

        prewarm_ns = decision.prewarm_ns
        if prewarm_ns is None:
            state.load_at = None          # cancel any pending prewarm
            when = state.unload_at = end + decision.keep_alive_ns
            heapq.heappush(lifecycle, (when, _UNLOAD, fn))
        else:
            state.post_load_keep_ns = decision.keep_alive_ns
            state.unload_at = end
            heapq.heappush(lifecycle, (end, _UNLOAD, fn))
            if len(lifecycle) > self._compact_at:
                self._maybe_compact()
                lifecycle = self.lifecycle
            when = state.load_at = end + prewarm_ns
            heapq.heappush(lifecycle, (when, _LOAD, fn))
        depth = len(lifecycle)
        if depth > self._compact_at:
            self._maybe_compact()
            depth = len(self.lifecycle)
        if depth > stats.peak_lifecycle_heap:
            stats.peak_lifecycle_heap = depth
        resident = len(lru)
        if resident > self.peak_resident:
            self.peak_resident = resident

    def finish(self) -> CellStats:
        # The count's peak is the MB peak: sandbox_mb > 0 scales monotonically.
        self.stats.peak_resident_mb = self.peak_resident * self.sandbox_mb
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
    on_arrival = cell.on_arrival
    replay_stats = ReplayStats()
    for when, fn, _seq in merged_stream(
        config.replay, replay_stats, cell_indices(config, group)
    ):
        on_arrival(when, fn)
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
