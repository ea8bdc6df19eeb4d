"""Shard invariance: the worker count must never change the simulation.

The sharded execution layer's hard contract (DESIGN.md §12) is that
``shards`` is purely an execution knob: same seed ⇒ byte-identical
merged trace, rendered output, and invariant verdicts for ANY worker
count.  This suite enforces the contract at three levels:

* hypothesis properties over random ``(seed, failure-rate, host-count,
  group-count, shard-count)`` tuples, comparing every sharded run
  against the single-shard reference byte for byte;
* one real-process test (fork/spawn pool, shards 1/2/4/8) proving the
  process boundary itself leaks nothing — id counters, pool ordering,
  pickling round-trips;
* pinned unit tests for the deterministic primitives the contract
  rests on: the cell→worker partition, the shared cell driver, the
  merge tie-breaks, and the conservative-lookahead window driver.

It also holds the obs-on vs obs-off differential for every study that
runs on the shared cell driver (sharded chaos, recovery, replay).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.cluster_recovery import (
    ClusterRecoveryConfig,
    render_recovery,
    run_recovery,
)
from repro.experiments.sharded_chaos import (
    ShardedChaosConfig,
    run_sharded_chaos,
    render_sharded_chaos,
)
from repro.faas.prewarm import PrewarmConfig, render_replay, run_replay
from repro.obs import Observability, activate
from repro.sim.engine import Engine
from repro.sim.event import EventPriority
from repro.sim.sharding import (
    assign_cells,
    merge_records,
    merged_pending,
    records_jsonl,
    run_cells,
    windowed_run,
)
from repro.traces.replay import ReplayConfig

import pytest


def _snapshot(config, shards, parallel=True):
    """Everything the invariance contract covers, as comparable bytes."""
    result = run_sharded_chaos(
        config, shards=shards, modes=("breaker",), parallel=parallel
    )
    verdicts = tuple(
        (mode, outcome.ok, tuple(outcome.violations))
        for mode, outcome in result.outcomes.items()
    )
    return (
        records_jsonl(result.records),
        render_sharded_chaos(result),
        result.ok,
        verdicts,
    )


class TestShardInvarianceProperties:
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        failure_rate=st.sampled_from([0.0, 0.05, 0.2, 0.5]),
        hosts=st.integers(min_value=2, max_value=3),
        groups=st.integers(min_value=1, max_value=4),
        shards=st.integers(min_value=2, max_value=6),
    )
    @settings(max_examples=12, deadline=None)
    def test_any_shard_count_matches_single_shard(
        self, seed, failure_rate, hosts, groups, shards
    ):
        config = ShardedChaosConfig(
            groups=groups,
            hosts=hosts,
            failure_rate=failure_rate,
            requests=40,
            drain_s=5.0,
            seed=seed,
        )
        # parallel=False exercises the identical partition, window
        # drivers, and merge — only the OS processes are skipped, which
        # keeps hypothesis's example budget affordable.  The real
        # process boundary is covered below and by the CI diff job.
        reference = _snapshot(config, shards=1)
        sharded = _snapshot(config, shards=shards, parallel=False)
        assert sharded == reference

    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        shards=st.integers(min_value=2, max_value=5),
    )
    @settings(max_examples=8, deadline=None)
    def test_verdicts_and_trace_stable_under_reshard(self, seed, shards):
        """Resharding an already-sharded layout is also invariant."""
        config = ShardedChaosConfig(
            groups=3, hosts=2, requests=30, drain_s=5.0, seed=seed
        )
        a = _snapshot(config, shards=shards, parallel=False)
        b = _snapshot(config, shards=shards + 1, parallel=False)
        assert a == b


class TestShardInvarianceRealProcesses:
    def test_worker_processes_match_inline_run(self):
        """Fork/spawn pool at 2/4/8 workers == the inline single shard.

        This is the one place the actual process boundary is crossed in
        the tier-1 suite: pickling of configs/outcomes, pool result
        ordering, and process-global id counters all sit on this path.
        """
        config = ShardedChaosConfig(
            groups=4, hosts=2, requests=80, drain_s=10.0, seed=11
        )
        reference = _snapshot(config, shards=1)
        for shards in (2, 4, 8):
            assert _snapshot(config, shards=shards) == reference


class TestObsDoesNotPerturb:
    """Instrumentation is observation only: every study that runs on the
    shared cell driver renders and traces the same bytes with an active
    observability bundle as without one."""

    @staticmethod
    def _observed(run):
        obs = Observability()
        with activate(obs):
            observed = run()
        return observed, obs

    def test_sharded_chaos_trace(self):
        config = ShardedChaosConfig(
            groups=3, hosts=2, requests=60, drain_s=10.0, seed=5
        )

        def run():
            result = run_sharded_chaos(config, shards=2, parallel=False)
            return records_jsonl(result.records), render_sharded_chaos(result)

        observed, obs = self._observed(run)
        assert len(obs.tracer) > 0 and obs.metrics.names()
        assert observed == run()

    def test_recovery_trace_and_render(self):
        config = ClusterRecoveryConfig(
            groups=2, gateways=3, hosts=2, gateway_failure_rate=0.3,
            requests=120, drain_s=10.0, deadline_s=5.0, seed=5,
        )

        def run():
            result = run_recovery(config, shards=2, parallel=False)
            return records_jsonl(result.records), render_recovery(result)

        observed, obs = self._observed(run)
        assert len(obs.tracer) > 0 and obs.metrics.names()
        assert observed == run()

    def test_replay_render(self):
        config = PrewarmConfig(
            replay=ReplayConfig(functions=24, duration_s=300.0, seed=3),
            policy="hybrid",
            memory_budget_mb=8 * 128.0,
            groups=2,
        )

        def run():
            return render_replay(run_replay(config, shards=2, parallel=False))

        observed, _obs = self._observed(run)
        assert observed == run()


class TestAssignCells:
    @given(
        cells=st.integers(min_value=0, max_value=64),
        shards=st.integers(min_value=1, max_value=16),
    )
    @settings(max_examples=60)
    def test_partition_is_exact_and_balanced(self, cells, shards):
        assignment = assign_cells(cells, shards)
        assert len(assignment) == shards
        flat = [cell for batch in assignment for cell in batch]
        assert sorted(flat) == list(range(cells))  # exact cover, no dups
        sizes = [len(batch) for batch in assignment]
        assert max(sizes) - min(sizes) <= 1  # balanced to within one

    def test_round_robin_layout_is_pinned(self):
        assert assign_cells(7, 3) == ((0, 3, 6), (1, 4), (2, 5))

    def test_more_shards_than_cells_yields_empty_batches(self):
        assert assign_cells(2, 4) == ((0,), (1,), (), ())

    def test_invalid_counts_rejected(self):
        with pytest.raises(ValueError, match="cell count"):
            assign_cells(-1, 2)
        with pytest.raises(ValueError, match="shard count"):
            assign_cells(4, 0)


def _cell(group, scale):
    """A module-level cell function: picklable under fork and spawn."""
    return (group, group * scale)


class TestRunCells:
    @pytest.mark.parametrize("parallel", [True, False])
    @pytest.mark.parametrize(
        "tasks, shards",
        [
            ([(g, 3) for g in range(7)], 1),
            ([(g, 3) for g in range(7)], 2),
            ([(g, 3) for g in range(7)], 3),
            ([(g, 5) for g in range(2)], 4),  # more shards than tasks
            ([], 3),  # zero tasks
        ],
    )
    def test_outcomes_come_back_in_task_order(self, tasks, shards, parallel):
        outcomes = run_cells(_cell, tasks, shards, parallel)
        assert outcomes == [_cell(*task) for task in tasks]

    def test_invalid_shard_count_rejected(self):
        with pytest.raises(ValueError, match="shards"):
            run_cells(_cell, [(0, 1)], 0)

    def test_single_shard_runs_in_process_without_pickling(self):
        """A closure cannot be pickled: running it proves the one-shard
        path calls the cell function in this process, in task order."""
        seen = []

        def cell(group):
            seen.append(group)
            return -group

        assert run_cells(cell, [(2,), (0,), (1,)], 1) == [-2, 0, -1]
        assert seen == [2, 0, 1]


class TestMergeRecords:
    def test_equal_timestamps_break_by_shard_then_stream_order(self):
        shard0 = [{"t": 5, "shard": 0, "n": "a"}, {"t": 5, "shard": 0, "n": "b"}]
        shard1 = [{"t": 5, "shard": 1, "n": "c"}, {"t": 2, "shard": 1, "n": "d"}]
        merged = merge_records([shard0, shard1])
        assert [record["n"] for record in merged] == ["d", "a", "b", "c"]

    def test_single_stream_order_is_preserved_verbatim(self):
        stream = [{"t": 3, "shard": 0}, {"t": 1, "shard": 0}, {"t": 1, "shard": 0}]
        # Within one shard the stream's own order is preserved only for
        # equal timestamps; the merge still sorts by time first.
        merged = merge_records([stream])
        assert [record["t"] for record in merged] == [1, 1, 3]
        assert merged[0] is stream[1] and merged[1] is stream[2]

    @given(
        streams=st.lists(
            st.lists(st.integers(min_value=0, max_value=20), max_size=10),
            max_size=4,
        )
    )
    @settings(max_examples=50)
    def test_merge_is_a_stable_total_order(self, streams):
        per_shard = [
            [{"t": t, "shard": shard} for t in sorted(times)]
            for shard, times in enumerate(streams)
        ]
        merged = merge_records(per_shard)
        keyed = [(record["t"], record["shard"]) for record in merged]
        assert keyed == sorted(keyed)
        assert len(merged) == sum(len(stream) for stream in per_shard)


class TestMergedPending:
    def test_cross_shard_tie_break_is_shard_id_then_sequence(self):
        """At equal (time, priority) the lower shard id drains first.

        Pinning this is satellite work for the merged multi-shard
        ``pending_events`` view: per-engine sequence counters are
        independent, so shard id is the only meaningful cross-shard
        tie-break.
        """
        engines = [Engine(), Engine()]
        # Schedule in an order that would betray wall-clock or global
        # counters: shard 1 first, then shard 0, same instants.
        engines[1].schedule_at(10, lambda: None, label="s1-a")
        engines[0].schedule_at(10, lambda: None, label="s0-a")
        engines[0].schedule_at(10, lambda: None, label="s0-b")
        engines[1].schedule_at(5, lambda: None, label="s1-b")
        snapshot = merged_pending(engines)
        assert [(shard, event.label) for shard, event in snapshot] == [
            (1, "s1-b"),
            (0, "s0-a"),
            (0, "s0-b"),
            (1, "s1-a"),
        ]

    def test_priority_orders_before_shard(self):
        engines = [Engine(), Engine()]
        engines[0].schedule_at(
            7, lambda: None, priority=EventPriority.NORMAL, label="normal"
        )
        engines[1].schedule_at(
            7, lambda: None, priority=EventPriority.FAILURE, label="failure"
        )
        snapshot = merged_pending(engines)
        assert [event.label for _shard, event in snapshot] == [
            "failure",
            "normal",
        ]

    def test_cancelled_events_are_excluded(self):
        engine = Engine()
        keep = engine.schedule_at(3, lambda: None, label="keep")
        drop = engine.schedule_at(3, lambda: None, label="drop")
        drop.cancel()
        snapshot = merged_pending([engine])
        assert [event.label for _shard, event in snapshot] == ["keep"]
        assert keep is snapshot[0][1]


class TestWindowedRun:
    def _drive(self, deliveries, lookahead, drain_until):
        engine = Engine()
        fired = []
        wrapped = [
            (when, lambda when=when, tag=tag: fired.append((when, tag)))
            for when, tag in deliveries
        ]
        windows = windowed_run(engine, wrapped, lookahead, drain_until)
        return engine, fired, windows

    @given(
        times=st.lists(
            st.integers(min_value=1, max_value=100_000), min_size=1, max_size=30
        ),
        lookahead=st.integers(min_value=1, max_value=10_000),
    )
    @settings(max_examples=60)
    def test_windowed_delivery_equals_upfront_schedule(self, times, lookahead):
        """The lookahead windows are invisible: same events, same order
        as scheduling the whole stream upfront and running once."""
        deliveries = [(when, index) for index, when in enumerate(sorted(times))]
        drain = max(times) + 1
        _engine, fired, _windows = self._drive(deliveries, lookahead, drain)

        reference_engine = Engine()
        reference = []
        for when, tag in deliveries:
            reference_engine.schedule_at(
                when,
                lambda when=when, tag=tag: reference.append((when, tag)),
                transient=True,
            )
        reference_engine.run()
        assert fired == reference

    def test_fast_forward_skips_empty_windows(self):
        # Two deliveries a simulated minute apart with a 100 µs
        # lookahead: crawling would take ~600k windows, the null-message
        # fast-forward takes two (plus the final drain).
        deliveries = [(1_000, "a"), (60_000_000_000, "b")]
        _engine, fired, windows = self._drive(
            deliveries, lookahead=100_000, drain_until=60_000_000_001
        )
        assert [tag for _when, tag in fired] == ["a", "b"]
        assert windows <= 4

    def test_engine_never_runs_past_drain_horizon(self):
        engine, _fired, _windows = self._drive(
            [(50, "only")], lookahead=10, drain_until=200
        )
        assert engine.now == 200

    def test_lookahead_must_be_positive(self):
        with pytest.raises(ValueError, match="lookahead"):
            windowed_run(Engine(), [], lookahead_ns=0, drain_until=10)

    def test_empty_stream_still_drains(self):
        engine = Engine()
        windows = windowed_run(engine, [], lookahead_ns=100, drain_until=500)
        assert windows == 1
        assert engine.now == 500
