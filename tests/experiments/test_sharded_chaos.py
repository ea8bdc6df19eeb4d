"""Sharded chaos study: cells, aggregation, rendering, CLI plumbing.

The shard-*invariance* contract itself is pinned in
``tests/sim/test_shard_invariance.py``; this file covers the study's
own semantics — the front-end arrival plan, cell purity, the
mode-level aggregation, the merged trace artifact, and the CLI flags.
"""

import json

import pytest

from repro.experiments.chaos import (
    CHAOS_MODES,
    ULL_FRACTION,
    CellOutcome,
    ChaosConfig,
    _aggregate_mode,
    run_chaos,
)
from repro.experiments.sharded_chaos import (
    ShardedChaosConfig,
    run_cell,
    run_sharded_chaos,
    render_sharded_chaos,
)
from repro.faas.frontend import DISPATCH_LATENCY_NS, plan_arrivals
from repro.sim.sharding import cell_seed, records_jsonl, write_records_jsonl


FAST = ShardedChaosConfig(groups=3, hosts=2, requests=60, drain_s=10.0, seed=5)


class TestFrontend:
    def test_plan_covers_every_request_exactly_once(self):
        plan = plan_arrivals(
            requests=200, groups=5, mean_interarrival_ms=5.0,
            ull_fraction=0.5, seed=3,
        )
        assert set(plan) == set(range(5))
        indices = sorted(a.index for group in plan.values() for a in group)
        assert indices == list(range(200))

    def test_deliveries_are_submit_plus_dispatch_hop_and_ascending(self):
        plan = plan_arrivals(
            requests=100, groups=4, mean_interarrival_ms=2.0,
            ull_fraction=0.3, seed=9,
        )
        for arrivals in plan.values():
            for arrival in arrivals:
                assert arrival.deliver_ns == arrival.submit_ns + DISPATCH_LATENCY_NS
                assert arrival.function in ("firewall", "background")
                assert arrival.priority == (1 if arrival.function == "firewall" else 0)
            deliver = [a.deliver_ns for a in arrivals]
            assert deliver == sorted(deliver)

    def test_plan_is_pure_in_seed(self):
        kwargs = dict(
            requests=50, groups=3, mean_interarrival_ms=5.0,
            ull_fraction=0.5, seed=12,
        )
        assert plan_arrivals(**kwargs) == plan_arrivals(**kwargs)
        different = plan_arrivals(**{**kwargs, "seed": 13})
        assert different != plan_arrivals(**kwargs)

    def test_arrival_times_do_not_depend_on_group_count(self):
        """Routing draws come from their own stream: the same seed
        offers the same load however many cells it is split over."""
        one = plan_arrivals(
            requests=80, groups=1, mean_interarrival_ms=5.0,
            ull_fraction=0.5, seed=4,
        )
        eight = plan_arrivals(
            requests=80, groups=8, mean_interarrival_ms=5.0,
            ull_fraction=0.5, seed=4,
        )
        flat = sorted(
            (a.index, a.submit_ns, a.function)
            for group in eight.values()
            for a in group
        )
        assert flat == [(a.index, a.submit_ns, a.function) for a in one[0]]

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError, match="requests"):
            plan_arrivals(0, 1, 5.0, 0.5, 0)
        with pytest.raises(ValueError, match="groups"):
            plan_arrivals(1, 0, 5.0, 0.5, 0)


class TestCells:
    def test_cell_seed_is_pure_and_group_distinct(self):
        family = "shard-cell-"
        assert cell_seed(7, family, 0) == cell_seed(7, family, 0)
        assert cell_seed(7, family, 0) != cell_seed(7, family, 1)
        assert cell_seed(7, family, 0) != cell_seed(8, family, 0)
        assert cell_seed(7, family, 0) != cell_seed(7, "recovery-cell-", 0)

    def test_run_cell_is_reproducible(self):
        plan = plan_arrivals(
            requests=FAST.requests, groups=FAST.groups,
            mean_interarrival_ms=FAST.mean_interarrival_ms,
            ull_fraction=ULL_FRACTION, seed=FAST.seed,
        )
        first = run_cell("breaker", FAST, 1, plan[1])
        second = run_cell("breaker", FAST, 1, plan[1])
        assert first == second

    def test_cell_records_are_sorted_and_tagged(self):
        plan = plan_arrivals(
            requests=FAST.requests, groups=FAST.groups,
            mean_interarrival_ms=FAST.mean_interarrival_ms,
            ull_fraction=ULL_FRACTION, seed=FAST.seed,
        )
        cell = run_cell("breaker", FAST, 2, plan[2])
        assert cell.submitted == len(plan[2])
        times = [record["t"] for record in cell.records]
        assert times == sorted(times)
        assert all(record["shard"] == 2 for record in cell.records)
        assert all(record["mode"] == "breaker" for record in cell.records)
        kinds = {record["kind"] for record in cell.records}
        assert kinds <= {"crash", "recover", "request"}
        assert sum(1 for r in cell.records if r["kind"] == "request") == len(
            plan[2]
        )


class TestAggregation:
    def test_counters_sum_and_percentiles_pool(self):
        cells = [
            CellOutcome(
                mode="breaker", group=0, submitted=3, completed=2,
                latencies_us=[1.0, 100.0], ull_latencies_us=[1.0],
                degradations={"steer": 1}, fired={"node_crash": 2},
                crashes=2, recoveries=1,
            ),
            CellOutcome(
                mode="breaker", group=1, submitted=2, completed=2,
                latencies_us=[2.0, 3.0], ull_latencies_us=[2.0],
                degradations={"steer": 2, "shed": 1}, fired={"node_crash": 1},
                crashes=1, recoveries=1,
            ),
        ]
        outcome = _aggregate_mode("breaker", cells)
        assert outcome.submitted == 5
        assert outcome.completed == 4
        assert outcome.crashes == 3
        assert outcome.recoveries == 2
        assert outcome.degradations == {"shed": 1, "steer": 3}
        assert outcome.fired == {"node_crash": 3}
        # Pooled percentiles, not an average of per-cell percentiles:
        # the pooled p50 of [1, 2, 3, 100] sits in [2, 3].
        assert 2.0 <= outcome.p50_us <= 3.0

    def test_violations_concatenate_with_group_prefix(self):
        cells = [
            CellOutcome(mode="vanilla", group=0, violations=["g0: lost"]),
            CellOutcome(mode="vanilla", group=1, violations=[]),
        ]
        outcome = _aggregate_mode("vanilla", cells)
        assert outcome.violations == ["g0: lost"]
        assert not outcome.ok


class TestRunAndRender:
    def test_run_is_sound_and_accounts_every_request(self):
        result = run_sharded_chaos(FAST, shards=1)
        assert result.ok
        for outcome in result.outcomes.values():
            assert outcome.submitted == FAST.requests
        assert result.events_executed > 0
        assert result.windows >= len(result.cells)

    def test_two_inprocess_runs_are_byte_identical(self):
        first = run_sharded_chaos(FAST, shards=1)
        second = run_sharded_chaos(FAST, shards=1)
        assert render_sharded_chaos(first) == render_sharded_chaos(second)
        assert records_jsonl(first.records) == records_jsonl(second.records)

    def test_render_never_mentions_the_worker_count(self):
        """The rendered output is part of the byte-identity contract:
        it may only contain model parameters and simulated results."""
        rendered = render_sharded_chaos(run_sharded_chaos(FAST, shards=1))
        assert "shards=" not in rendered
        assert "worker" not in rendered
        assert f"groups={FAST.groups}" in rendered
        assert f"lookahead_ns={DISPATCH_LATENCY_NS}" in rendered

    def test_trace_jsonl_is_canonical_and_mode_major(self, tmp_path):
        result = run_sharded_chaos(FAST, shards=1)
        text = records_jsonl(result.records)
        lines = text.splitlines()
        assert len(lines) == len(result.records)
        parsed = [json.loads(line) for line in lines]
        assert parsed == result.records
        for line, record in zip(lines, parsed):
            assert line == json.dumps(
                record, sort_keys=True, separators=(",", ":")
            )
        path = tmp_path / "trace.jsonl"
        write_records_jsonl(result.records, str(path))
        assert path.read_text() == text

    def test_merged_records_ascend_within_each_mode(self):
        result = run_sharded_chaos(FAST, shards=1)
        by_mode = {}
        for record in result.records:
            by_mode.setdefault(record["mode"], []).append(record)
        for records in by_mode.values():
            keyed = [(record["t"], record["shard"]) for record in records]
            assert keyed == sorted(keyed)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError, match="groups"):
            ShardedChaosConfig(groups=0)
        with pytest.raises(ValueError, match="hosts"):
            ShardedChaosConfig(hosts=1)
        with pytest.raises(ValueError, match="shards"):
            run_sharded_chaos(FAST, shards=0)


class TestSingleEngineEquivalence:
    """Single-engine chaos and the one-group sharded run share the stack
    builder and the arrival plan; only the cell seed and the windowed
    delivery hop differ, so they must offer the identical load."""

    HOSTS, REQUESTS = 2, 120

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_same_submissions_and_plan_in_every_mode(self, seed):
        single = run_chaos(
            ChaosConfig(hosts=self.HOSTS, requests=self.REQUESTS, seed=seed)
        )
        sharded = run_sharded_chaos(
            ShardedChaosConfig(
                groups=1, hosts=self.HOSTS, requests=self.REQUESTS, seed=seed
            ),
            shards=1,
        )
        assert single.ok and sharded.ok
        planned = [
            arrival.function
            for arrival in plan_arrivals(
                requests=self.REQUESTS, groups=1, mean_interarrival_ms=5.0,
                ull_fraction=0.5, seed=seed,
            )[0]
        ]
        for mode in CHAOS_MODES:
            assert (
                sharded.outcome(mode).submitted
                == single.outcome(mode).submitted
                == self.REQUESTS
            )
            requests = sorted(
                (r for r in sharded.records
                 if r["mode"] == mode and r["kind"] == "request"),
                key=lambda r: r["req"],
            )
            assert [r["fn"] for r in requests] == planned


class TestCli:
    def test_chaos_shards_flag_and_trace_out(self, tmp_path, capsys):
        from repro.cli import main

        trace_path = tmp_path / "trace.jsonl"
        code = main(
            [
                "chaos", "cluster", "--shards", "2", "--groups", "3",
                "--hosts", "2", "--requests", "60", "--seed", "5",
                "--trace-out", str(trace_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "chaos-sharded: groups=3" in out
        assert trace_path.exists()
        first_line = trace_path.read_text().splitlines()[0]
        record = json.loads(first_line)
        assert {"t", "shard", "mode", "kind"} <= set(record)

    def test_trace_out_without_shards_is_an_error(self, tmp_path, capsys):
        from repro.cli import main

        code = main(
            ["chaos", "cluster", "--trace-out", str(tmp_path / "t.jsonl")]
        )
        assert code == 2
        assert "--trace-out requires --shards" in capsys.readouterr().err

    def test_experiment_registry_exposes_cluster_sharded(self):
        from repro.experiments.registry import ExperimentConfig, get

        spec = get("cluster_sharded")
        result = spec.run(ExperimentConfig(fast=True, seed=2, shards=1))
        rows = result.rows()
        assert rows and all("mode" in row for row in rows)
        assert "chaos-sharded:" in result.summary()
