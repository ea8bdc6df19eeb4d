"""Prewarm policies + capacity model: hand-computed fixtures, pressure.

Policy math (hybrid-histogram windows) is checked against by-hand
numbers, not against the implementation's own formulas; the capacity
model's core safety property — a sandbox with an invocation in flight
is never evicted — is driven both directly and end-to-end (any breach
lands in ``CellStats.violations``).
"""

import heapq
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faas.keepalive import (
    FixedWindow,
    HybridHistogram,
    IdleHistogram,
    NoKeepAlive,
    PolicyDecision,
    PrewarmPolicy,
    make_policy,
)
from repro.faas.prewarm import (
    PrewarmConfig,
    cell_indices,
    counter_percentile_ns,
    render_replay,
    run_cell,
    run_replay,
)
from repro.faas.prewarm import _LOAD, _UNLOAD, _Cell, _FnState
from repro.sim.units import SECOND
from repro.traces.replay import ReplayConfig, merged_stream

MINUTE = 60 * SECOND


class TestIdleHistogram:
    def test_observe_bins_by_width(self):
        hist = IdleHistogram(bin_width_ns=MINUTE, bins=4)
        hist.observe(0)
        hist.observe(MINUTE - 1)
        hist.observe(90 * SECOND)         # 1.5 min -> bin 1
        assert hist.counts[:2] == [2, 1]
        assert hist.total == 3
        assert hist.oob == 0

    def test_out_of_bounds_bucket(self):
        hist = IdleHistogram(bin_width_ns=MINUTE, bins=4)
        hist.observe(4 * MINUTE)          # range is [0, 4 min)
        assert hist.oob == 1
        assert hist.total == 1

    def test_percentile_nearest_rank(self):
        hist = IdleHistogram(bin_width_ns=MINUTE, bins=10)
        for _ in range(9):
            hist.observe(30 * SECOND)     # bin 0
        hist.observe(5 * MINUTE)          # bin 5
        assert hist.percentile_bin(5.0) == 0     # rank 1 of 10
        assert hist.percentile_bin(90.0) == 0    # rank 9
        assert hist.percentile_bin(99.0) == 5    # rank 10
        assert hist.lower_edge_ns(5) == 5 * MINUTE
        assert hist.upper_edge_ns(5) == 6 * MINUTE

    def test_percentile_rank_in_oob_tail_is_none(self):
        hist = IdleHistogram(bin_width_ns=MINUTE, bins=2)
        hist.observe(30 * SECOND)
        hist.observe(10 * MINUTE)         # OOB
        assert hist.percentile_bin(99.0) is None

    def test_empty_histogram_percentile_is_none(self):
        assert IdleHistogram().percentile_bin(50.0) is None

    def test_reset_clears_everything(self):
        hist = IdleHistogram(bin_width_ns=MINUTE, bins=4)
        hist.observe(30 * SECOND)
        hist.observe(10 * MINUTE)
        hist.reset()
        assert hist.total == 0 and hist.oob == 0
        assert all(count == 0 for count in hist.counts)

    def test_negative_gap_rejected(self):
        with pytest.raises(ValueError):
            IdleHistogram().observe(-1)

    @pytest.mark.parametrize("kwargs", [
        {"bin_width_ns": 0}, {"bins": 0},
    ])
    def test_bad_construction_rejected(self, kwargs):
        with pytest.raises(ValueError):
            IdleHistogram(**kwargs)


class TestHybridHistogramWindows:
    """Window math vs hand-computed numbers (60 s bins throughout)."""

    def make_policy(self, **kwargs):
        kwargs.setdefault("min_observations", 1)
        return HybridHistogram(**kwargs)

    def test_single_observation_window(self):
        # One 90 s gap -> bin 1 for both percentiles.
        #   prewarm    = 0.85 x lower_edge(1) = 0.85 x 60 s = 51 s
        #   keep-alive = 1.15 x upper_edge(1) - prewarm
        #              = 1.15 x 120 s - 51 s = 138 s - 51 s = 87 s
        policy = self.make_policy()
        policy.observe_gap(7, 90 * SECOND)
        assert policy.decision(7) == PolicyDecision(
            prewarm_ns=51 * SECOND, keep_alive_ns=87 * SECOND
        )

    def test_head_in_bin_zero_stays_resident(self):
        # Sub-minute gaps exist: no prewarm window, keep-alive covers
        # the tail: 1.15 x upper_edge(0) = 69 s.
        policy = self.make_policy()
        policy.observe_gap(1, 30 * SECOND)
        assert policy.decision(1) == PolicyDecision(
            prewarm_ns=None, keep_alive_ns=69 * SECOND
        )

    def test_too_few_observations_falls_back(self):
        policy = HybridHistogram(min_observations=8,
                                 default_keep_ns=600 * SECOND)
        for _ in range(7):
            policy.observe_gap(3, 90 * SECOND)
        assert policy.decision(3) == PolicyDecision(
            prewarm_ns=None, keep_alive_ns=600 * SECOND
        )
        policy.observe_gap(3, 90 * SECOND)   # 8th observation
        assert policy.decision(3).prewarm_ns == 51 * SECOND

    def test_mostly_oob_falls_back(self):
        # 3 of 4 gaps beyond the histogram range (> 2 h): fraction
        # 0.75 > threshold 0.5 -> the percentiles are meaningless.
        policy = self.make_policy()
        policy.observe_gap(2, 90 * SECOND)
        for _ in range(3):
            policy.observe_gap(2, 3 * 3600 * SECOND)
        assert policy.decision(2) == PolicyDecision(
            prewarm_ns=None, keep_alive_ns=600 * SECOND
        )

    def test_tail_rank_in_oob_falls_back(self):
        # 6 in-range + 4 OOB: an OOB fraction of 0.4 passes the threshold,
        # but the p99 rank (10 of 10) lands in the OOB tail.
        policy = self.make_policy()
        for _ in range(6):
            policy.observe_gap(4, 90 * SECOND)
        for _ in range(4):
            policy.observe_gap(4, 3 * 3600 * SECOND)
        assert policy.decision(4) == PolicyDecision(
            prewarm_ns=None, keep_alive_ns=600 * SECOND
        )

    def test_pattern_change_resets_histogram(self):
        policy = self.make_policy(pattern_miss_limit=4)
        policy.observe_gap(9, 90 * SECOND)
        assert policy.decision(9).prewarm_ns == 51 * SECOND
        for _ in range(4):
            policy.record_outcome(9, warm=False)
        assert policy.histogram(9).total == 0
        assert policy.decision(9) == PolicyDecision(
            prewarm_ns=None, keep_alive_ns=600 * SECOND
        )

    def test_warm_hit_resets_miss_streak(self):
        policy = self.make_policy(pattern_miss_limit=4)
        policy.observe_gap(5, 90 * SECOND)
        for _ in range(3):
            policy.record_outcome(5, warm=False)
        policy.record_outcome(5, warm=True)      # streak broken
        policy.record_outcome(5, warm=False)     # 1 of 4 again
        assert policy.histogram(5).total == 1    # never reset

    def test_new_observation_invalidates_cached_decision(self):
        policy = self.make_policy()
        policy.observe_gap(6, 90 * SECOND)
        first = policy.decision(6)
        policy.observe_gap(6, 30 * SECOND)       # head moves to bin 0
        assert policy.decision(6) != first

    def test_histograms_are_per_function(self):
        policy = self.make_policy()
        policy.observe_gap(0, 90 * SECOND)
        assert policy.decision(1) == PolicyDecision(
            prewarm_ns=None, keep_alive_ns=600 * SECOND
        )

    @pytest.mark.parametrize("kwargs", [
        {"head_pct": 0.0},
        {"head_pct": 60.0, "tail_pct": 50.0},
        {"head_margin": 0.0},
        {"tail_margin": 0.9},
        {"min_observations": 0},
        {"pattern_miss_limit": 0},
        {"bin_width_ns": 0},
        {"bin_width_ns": -SECOND},
        {"bins": 0},
    ])
    def test_bad_construction_rejected(self, kwargs):
        with pytest.raises(ValueError):
            HybridHistogram(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"oob_threshold": -0.1},
        {"oob_threshold": 1.5},
        {"oob_threshold": math.nan},
        {"default_keep_ns": -1},
    ])
    def test_hostile_thresholds_rejected_by_name(self, kwargs):
        (name,) = kwargs
        with pytest.raises(ValueError, match=name):
            HybridHistogram(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"oob_threshold": 0.0}, {"oob_threshold": 1.0}, {"default_keep_ns": 0},
    ])
    def test_threshold_edges_accepted(self, kwargs):
        HybridHistogram(**kwargs)

    def test_same_bin_pair_shares_one_decision(self):
        policy = self.make_policy()
        policy.observe_gap(1, 90 * SECOND)
        policy.observe_gap(2, 100 * SECOND)      # also bin 1
        assert policy.decision(1) is policy.decision(2)
        policy.observe_gap(2, 30 * SECOND)       # head moves to bin 0
        assert policy.decision(1) is not policy.decision(2)


# ---------------------------------------------------------------------------
# Nearest-rank cursors and the bin-pair memo vs from-scratch references
# ---------------------------------------------------------------------------

WIDTH = 10


def nearest_rank_bin(gaps, bins, pct):
    """The bin of the rank-th smallest gap, or None past the bins."""
    if not gaps:
        return None
    rank = max(1, math.ceil(pct / 100.0 * len(gaps)))
    if rank > len(gaps):
        return None
    index = sorted(gaps)[rank - 1] // WIDTH
    return index if index < bins else None


percents = st.one_of(
    st.sampled_from([100.0, 99.0, 50.0, 5.0, 0.5, 0.01]),
    st.floats(min_value=0.001, max_value=100.0),
)


def histogram_ops(bins):
    gap = st.integers(min_value=0, max_value=WIDTH * bins + 2 * WIDTH)
    return st.lists(
        st.one_of(
            st.tuples(st.just("observe"), gap),
            st.tuples(st.just("query"), percents),
            st.tuples(st.just("reset"), st.none()),
        ),
        max_size=80,
    )


class TestCursorDifferential:
    """Cursors vs a brute-force nearest-rank over the raw gaps."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), bins=st.integers(min_value=1, max_value=8))
    def test_cursors_match_brute_force(self, data, bins):
        ops = data.draw(histogram_ops(bins))
        hist = IdleHistogram(bin_width_ns=WIDTH, bins=bins)
        gaps = []
        queried = []
        for op, arg in ops:
            if op == "observe":
                hist.observe(arg)
                gaps.append(arg)
            elif op == "reset":
                hist.reset()
                gaps.clear()
            else:
                queried.append(arg)       # may create a cursor mid-stream
            for pct in queried:
                assert hist.percentile_bin(pct) == nearest_rank_bin(gaps, bins, pct)
            assert hist.total == len(gaps)


def reference_decision(policy, gaps):
    """The hybrid window computed from scratch over one function's gaps."""
    fallback = PolicyDecision(prewarm_ns=None, keep_alive_ns=policy.default_keep_ns)
    if len(gaps) < policy.min_observations:
        return fallback, None
    oob = sum(gap >= WIDTH * policy.bins for gap in gaps)
    if oob / len(gaps) > policy.oob_threshold:
        return fallback, None
    head = nearest_rank_bin(gaps, policy.bins, policy.head_pct)
    tail = nearest_rank_bin(gaps, policy.bins, policy.tail_pct)
    if head is None or tail is None:
        return fallback, None
    prewarm = round(policy.head_margin * (head * WIDTH))
    tail_ns = round(policy.tail_margin * ((tail + 1) * WIDTH))
    if prewarm <= 0:
        return PolicyDecision(None, max(tail_ns, WIDTH)), (head, tail)
    return PolicyDecision(prewarm, max(tail_ns - prewarm, WIDTH)), (head, tail)


class TestDecisionMemo:
    @settings(max_examples=200, deadline=None)
    @given(
        data=st.data(),
        bins=st.integers(min_value=1, max_value=8),
        head_pct=percents,
        oob_threshold=st.sampled_from([0.0, 0.25, 0.5, 1.0]),
    )
    def test_every_decision_matches_a_fresh_window(
        self, data, bins, head_pct, oob_threshold
    ):
        tail_pct = data.draw(st.floats(min_value=head_pct, max_value=100.0))
        policy = HybridHistogram(
            bin_width_ns=WIDTH, bins=bins, min_observations=3,
            head_pct=head_pct, tail_pct=tail_pct, oob_threshold=oob_threshold,
            pattern_miss_limit=3, default_keep_ns=7 * WIDTH,
        )
        functions = range(3)
        gaps = {fn: [] for fn in functions}
        misses = dict.fromkeys(functions, 0)
        ops = data.draw(st.lists(st.tuples(
            st.sampled_from(functions),
            st.one_of(
                st.integers(min_value=0, max_value=WIDTH * bins + 2 * WIDTH),
                st.booleans(),            # a recorded outcome: warm or not
            ),
        ), max_size=60))
        for fn, arg in ops:
            if isinstance(arg, bool):
                policy.record_outcome(fn, arg)
                misses[fn] = 0 if arg else misses[fn] + 1
                if misses[fn] >= 3:
                    gaps[fn].clear()
                    misses[fn] = 0
            else:
                policy.observe_gap(fn, arg)
                gaps[fn].append(arg)
            by_pair = {}
            for other in functions:
                expected, pair = reference_decision(policy, gaps[other])
                got = policy.decision(other)
                assert got == expected
                if pair is not None:
                    assert by_pair.setdefault(pair, got) is got


class TestMakePolicy:
    def test_spellings(self):
        assert isinstance(make_policy("none"), NoKeepAlive)
        fixed = make_policy("fixed-600")
        assert isinstance(fixed, FixedWindow)
        assert fixed.window_ns == 600 * SECOND
        assert fixed.name == "fixed-600s"
        hybrid = make_policy("hybrid")
        assert isinstance(hybrid, HybridHistogram)
        assert hybrid.bin_width_ns == MINUTE
        narrow = make_policy("hybrid-10")
        assert narrow.bin_width_ns == 10 * SECOND
        assert narrow.name == "hybrid-10"

    @pytest.mark.parametrize(
        "spec", ["lru", "fixed-", "fixed-x", "hybrid-x", "hybrid-0", "hybrid--60", ""]
    )
    def test_bad_spellings_rejected(self, spec):
        with pytest.raises(ValueError):
            make_policy(spec)

    def test_fixed_window_must_be_positive(self):
        with pytest.raises(ValueError):
            FixedWindow(0)

    def test_no_keep_alive_decision(self):
        assert NoKeepAlive().decision(0) == PolicyDecision(
            prewarm_ns=None, keep_alive_ns=0
        )


def make_config(**kwargs):
    replay = kwargs.pop("replay", None) or ReplayConfig(
        functions=kwargs.pop("functions", 8),
        duration_s=kwargs.pop("duration_s", 600.0),
        seed=kwargs.pop("seed", 0),
        idle_fraction=0.0,
        periodic_fraction=0.0,
        mean_rate_per_function=kwargs.pop("rate", 0.2),
    )
    base = dict(replay=replay, policy="fixed-600",
                memory_budget_mb=4096.0, sandbox_mb=128.0)
    base.update(kwargs)
    return PrewarmConfig(**base)


class TestPrewarmConfig:
    @pytest.mark.parametrize("kwargs", [
        {"memory_budget_mb": 0.0},
        {"sandbox_mb": 0.0},
        {"memory_budget_mb": float("inf")},
        {"groups": 0},
        {"warmup_s": 600.0},              # == duration
        {"policy": "lru"},                # bad spelling caught up front
        {"policy": "hybrid-0"},           # zero-width bins caught up front
    ])
    def test_bad_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            make_config(**kwargs)


class TestCellTiering:
    """Cold boot -> HORSE resume -> snapshot restore, hand-driven."""

    def make_cell(self, **kwargs):
        return _Cell(make_config(**kwargs), group=0)

    def test_horse_resume_cost_composition(self):
        # fast_fixed(45) + p2sm_merge(1)(40) + coalesced_update(47).
        assert self.make_cell().horse_resume_ns == 132

    def test_tier_progression(self):
        cell = self.make_cell(policy="fixed-600")
        cell.on_arrival(0, 0)                       # first touch: cold
        cell.on_arrival(10 * SECOND, 0)             # resident: HORSE
        # fixed-600 unloads ~601.5 s after the last completion; arriving
        # at 700 s finds the snapshot, not the paused sandbox.
        cell.on_arrival(700 * SECOND, 0)
        stats = cell.finish()
        assert stats.cold_boots == 1
        assert stats.horse_hits == 1
        assert stats.restores == 1
        assert stats.expiry_unloads == 1
        assert set(stats.latency_counts) == {
            cell.cold_ns, cell.horse_resume_ns, cell.restore_ns
        }
        assert stats.violations == []

    def test_concurrent_arrival_piggybacks(self):
        cell = self.make_cell()
        cell.on_arrival(0, 0)
        cell.on_arrival(cell.cold_ns, 0)            # still executing
        stats = cell.finish()
        assert stats.concurrent_hits == 1
        assert stats.latency_counts[0] == 1         # zero init latency

    def test_warmup_window_excludes_early_arrivals(self):
        cell = self.make_cell(warmup_s=100.0)
        cell.on_arrival(0, 0)                       # inside warmup
        cell.on_arrival(200 * SECOND, 0)
        stats = cell.finish()
        assert stats.warmup_events == 1
        assert sum(stats.latency_counts.values()) == 1

    def test_prewarm_cycle_end_to_end(self):
        # 10 s bins + 100 s gaps: the histogram picks a prewarm window
        # (~76.5 s) so the sandbox is *gone* between invocations yet
        # *resident* when the next one lands — the timer-trigger win.
        cell = self.make_cell(policy="hybrid-10")
        cell.policy.min_observations = 1
        for tick in range(5):
            cell.on_arrival(tick * 100 * SECOND, 0)
        stats = cell.finish()
        assert stats.cold_boots == 1
        assert stats.prewarm_loads >= 2
        assert stats.horse_hits >= 2
        assert stats.restores == 0
        assert stats.violations == []


class TestMemoryPressure:
    def one_sandbox_cell(self):
        # Budget fits exactly one sandbox.
        return _Cell(
            make_config(memory_budget_mb=128.0, sandbox_mb=128.0), group=0
        )

    def test_in_flight_sandbox_never_evicted(self):
        cell = self.one_sandbox_cell()
        cell.on_arrival(0, 0)                       # cold: busy ~1.5 s
        cell.on_arrival(1000, 1)                    # fn 0 still in flight
        stats_now = cell.stats
        assert stats_now.overcommit_loads == 1      # borrowed, not evicted
        assert stats_now.pressure_evictions == 0
        assert cell.states[0].resident
        assert cell.states[0].busy_until > 1000

    def test_idle_sandboxes_evicted_lru_first(self):
        cell = self.one_sandbox_cell()
        cell.on_arrival(0, 0)
        cell.on_arrival(1000, 1)                    # overcommit (above)
        cell.on_arrival(10 * SECOND, 2)             # both idle now
        stats = cell.finish()
        assert stats.pressure_evictions == 2        # back under budget
        assert not cell.states[0].resident
        assert cell.states[0].has_snapshot          # demoted, not lost
        assert cell.states[2].resident
        assert stats.violations == []

    def test_speculative_prewarm_fails_instead_of_overcommitting(self):
        cell = self.one_sandbox_cell()
        cell.on_arrival(0, 0)                       # holds the budget, busy
        cell.states[1] = _FnState()
        cell._prewarm_load(1000, 1)
        assert cell.stats.prewarm_failed == 1
        assert not cell.states[1].resident
        assert cell.stats.overcommit_loads == 0

    def test_pressured_run_end_to_end_has_no_violations(self):
        config = make_config(
            functions=40, duration_s=600.0, rate=0.5,
            memory_budget_mb=4 * 128.0, policy="fixed-600",
        )
        stats = run_cell(config, 0)
        assert stats.pressure_evictions > 0         # budget really binds
        assert stats.violations == []
        assert stats.peak_resident_mb >= stats.budget_mb


class TestCounterPercentile:
    def test_nearest_rank(self):
        counts = {10: 1, 20: 1}
        assert counter_percentile_ns(counts, 0.0) == 10
        assert counter_percentile_ns(counts, 50.0) == 10
        assert counter_percentile_ns(counts, 51.0) == 20
        assert counter_percentile_ns(counts, 100.0) == 20

    def test_exact_values_never_interpolated(self):
        # 99 fast + 1 slow: every percentile names a real tier.
        counts = {132: 99, 1_300_000: 1}
        assert counter_percentile_ns(counts, 99.0) == 132
        assert counter_percentile_ns(counts, 99.5) == 1_300_000

    def test_empty_is_zero(self):
        assert counter_percentile_ns({}, 99.0) == 0

    def test_bad_percentile_rejected(self):
        with pytest.raises(ValueError):
            counter_percentile_ns({1: 1}, 101.0)


class AlwaysPrewarm(PrewarmPolicy):
    """Unload at completion, reload 5 s later, keep 60 s after the load."""

    def decision(self, fn):
        return PolicyDecision(prewarm_ns=5 * SECOND, keep_alive_ns=60 * SECOND)


def assert_timers_in_heap(cell):
    heap = set(cell.lifecycle)
    for fn, state in cell.states.items():
        if state.unload_at is not None:
            assert (state.unload_at, _UNLOAD, fn) in heap, fn
        if state.load_at is not None:
            assert (state.load_at, _LOAD, fn) in heap, fn


class TestLifecycleCompaction:
    """The lifecycle heap cancels lazily and compacts past a threshold:
    every armed timer must stay in it, and compaction drops only stale
    entries, so a cell that compacts ends exactly like one that never
    does."""

    def prewarming_cell(self):
        cell = _Cell(make_config(), group=0)
        cell.policy = AlwaysPrewarm()
        return cell

    def add_stale_timers(self, cell, count=64):
        """Cancelled far-future timers of a function with none armed."""
        cell.states.setdefault(99, _FnState())
        for i in range(count):
            heapq.heappush(cell.lifecycle, (10**18 + i, _UNLOAD, 99))

    def test_compaction_between_an_arrivals_two_pushes(self):
        cell = self.prewarming_cell()
        self.add_stale_timers(cell)
        cell._compact_at = len(cell.lifecycle)    # the unload push checks
        cell.on_arrival(0, 1)
        assert len(cell.lifecycle) == 2           # compacted, then the load
        assert_timers_in_heap(cell)

    def test_compaction_inside_the_drain(self):
        cell = self.prewarming_cell()
        cell.on_arrival(0, 1)                     # unload, then load 5 s on
        self.add_stale_timers(cell)
        # The drain pops fn 1's two timers; its prewarm load's push checks.
        cell._compact_at = len(cell.lifecycle) - 2
        cell.on_arrival(10 * SECOND, 2)
        assert cell.stats.prewarm_loads == 1
        assert all(when < 10**18 for when, _kind, _fn in cell.lifecycle)
        assert_timers_in_heap(cell)

    def replay_config(self):
        replay = ReplayConfig(
            functions=250, duration_s=900.0, seed=0, idle_fraction=0.0,
            periodic_fraction=0.8, period_min_s=20.0, period_max_s=120.0,
            mean_rate_per_function=0.05,
        )
        return PrewarmConfig(
            replay=replay, policy="hybrid-10",
            memory_budget_mb=0.5 * 250 * 128.0, sandbox_mb=128.0,
        )

    def replay(self, cell, check=False):
        config = cell.config
        for when, fn, _seq in merged_stream(
            config.replay, None, cell_indices(config, cell.group)
        ):
            cell.on_arrival(when, fn)
            if check:
                assert_timers_in_heap(cell)
        return cell.finish()

    def test_armed_timers_stay_in_the_heap_through_a_replay(self):
        stats = self.replay(_Cell(self.replay_config(), 0), check=True)
        assert stats.prewarm_loads > 0 and stats.expiry_unloads > 0

    def test_compaction_changes_no_outcome(self):
        compacting = self.replay(_Cell(self.replay_config(), 0))
        cell = _Cell(self.replay_config(), 0)
        cell._compact_at = math.inf       # the threshold is never passed
        never = self.replay(cell)
        assert compacting.peak_lifecycle_heap < never.peak_lifecycle_heap
        for name in vars(never):
            if name != "peak_lifecycle_heap":
                assert getattr(compacting, name) == getattr(never, name), name


class TestShardInvariance:
    """Workers are an execution knob: same seed => byte-identical."""

    def make_config(self):
        return make_config(
            functions=48, duration_s=300.0, rate=0.3,
            groups=4, memory_budget_mb=4 * 4 * 128.0, policy="fixed-120",
        )

    def test_render_identical_across_worker_counts(self):
        config = self.make_config()
        serial = render_replay(run_replay(config, shards=1))
        forked = render_replay(run_replay(config, shards=2, parallel=True))
        inline4 = render_replay(run_replay(config, shards=4, parallel=False))
        assert serial == forked == inline4

    def test_cells_arrive_in_group_order(self):
        config = self.make_config()
        result = run_replay(config, shards=3, parallel=False)
        assert [cell.group for cell in result.cells] == [0, 1, 2, 3]

    def test_bad_shards_rejected(self):
        with pytest.raises(ValueError):
            run_replay(self.make_config(), shards=0)

    def test_bad_group_rejected(self):
        with pytest.raises(ValueError):
            run_cell(self.make_config(), group=4)


class TestRenderReplay:
    def test_render_mentions_the_load_bearing_numbers(self):
        config = make_config(functions=16, duration_s=300.0)
        result = run_replay(config)
        text = render_replay(result)
        assert "HORSE resume" in text
        assert "fixed-600" in text
        assert f"events           {result.events}" in text
        assert "invariant violations: 0" in text


class TestAutoscaleProtection:
    """S2: the autoscaler's Little's-law pool target drives a protected
    quota in the victim scan — a function the tracker still wants warm
    is spared, at the cost of an overcommit."""

    def protected_cell(self, **kwargs):
        kwargs.setdefault("autoscale_protect", True)
        return _Cell(
            make_config(
                memory_budget_mb=128.0, sandbox_mb=128.0, **kwargs
            ),
            group=0,
        )

    def test_recently_active_function_is_spared(self):
        cell = self.protected_cell(protect_window_s=60.0)
        cell.on_arrival(0, 0)                       # fn 0 hot
        cell.on_arrival(10 * SECOND, 1)             # fn 0 idle but in-window
        assert cell.stats.protected_skips >= 1
        assert cell.states[0].resident              # spared
        assert cell.stats.pressure_evictions == 0
        assert cell.stats.overcommit_loads == 1     # borrowed instead

    def test_protection_expires_with_the_rate_window(self):
        cell = self.protected_cell(protect_window_s=30.0)
        cell.on_arrival(0, 0)
        cell.on_arrival(100 * SECOND, 1)            # window long gone
        assert not cell.states[0].resident          # evicted normally
        assert cell.stats.pressure_evictions == 1
        assert cell.stats.overcommit_loads == 0

    def test_default_off_keeps_legacy_eviction(self):
        cell = _Cell(
            make_config(memory_budget_mb=128.0, sandbox_mb=128.0), group=0
        )
        assert cell.trackers is None
        cell.on_arrival(0, 0)
        cell.on_arrival(10 * SECOND, 1)
        assert cell.stats.protected_skips == 0
        assert not cell.states[0].resident          # legacy LRU eviction

    @pytest.mark.parametrize("kwargs", [
        {"protect_window_s": 0.0},
        {"protect_headroom": 0.5},
    ])
    def test_bad_protection_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            make_config(autoscale_protect=True, **kwargs)

    def test_protected_run_end_to_end_stays_sound(self):
        config = make_config(
            functions=40, duration_s=600.0, rate=0.5,
            memory_budget_mb=4 * 128.0, policy="fixed-600",
            autoscale_protect=True, protect_window_s=30.0,
        )
        stats = run_cell(config, 0)
        assert stats.violations == []
        assert stats.protected_skips > 0            # protection engaged
