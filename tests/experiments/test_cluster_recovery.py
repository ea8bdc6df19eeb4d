"""Cluster recovery study: cells, worker invariance, trace, registry.

The control-plane *mechanics* (fencing, replay, parking) are pinned in
``tests/controlplane/``; this file covers the study wrapper — cell
purity, the shard-count invariance of the merged artifact, rendering,
and the registry/CLI surface.
"""

import json
from pathlib import Path

import pytest

from repro.experiments.cluster_recovery import (
    ClusterRecoveryConfig,
    _arrival_plan,
    render_recovery,
    run_recovery,
    run_recovery_cell,
)
from repro.check import dvfs_sample_checker, lifecycle_checker, runqueue_checker
from repro.experiments import registry
from repro.experiments.chaos import _build_cluster
from repro.experiments.registry import ExperimentConfig, all_specs
from repro.faas.invocation import StartType
from repro.hypervisor.runqueue import RunQueue
from repro.sim.sharding import cell_seed, records_jsonl, write_records_jsonl
from tests.retention import cell_leftovers

FAST = ClusterRecoveryConfig(
    groups=2,
    gateways=3,
    hosts=2,
    gateway_failure_rate=0.3,
    requests=120,
    drain_s=10.0,
    seed=5,
)


def _snapshot(config, shards, parallel=True):
    result = run_recovery(config, shards=shards, parallel=parallel)
    return (
        records_jsonl(result.records),
        render_recovery(result),
        result.ok,
        tuple(result.oracle_mismatches),
    )


class TestConfig:
    def test_defaults_valid(self):
        ClusterRecoveryConfig()

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"groups": 0}, "groups"),
            ({"gateways": 0}, "gateways"),
            ({"hosts": 1}, "hosts"),
            ({"gateway_failure_rate": 1.0}, "gateway_failure_rate"),
            ({"failure_rate": -0.1}, "failure_rate"),
            ({"requests": 0}, "requests"),
        ],
    )
    def test_invalid_arguments_rejected(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            ClusterRecoveryConfig(**kwargs)

    def test_cell_seeds_distinct_and_pure(self):
        seeds = [cell_seed(5, "recovery-cell-", group) for group in range(8)]
        assert len(set(seeds)) == 8
        assert seeds == [
            cell_seed(5, "recovery-cell-", group) for group in range(8)
        ]


class TestRun:
    def test_fast_run_is_sound_and_oracle_clean(self):
        result = run_recovery(FAST, shards=1)
        assert result.ok
        assert result.oracle_strict and result.oracle_mismatches == []
        total = sum(cell.submitted for cell in result.cells.values())
        assert total == FAST.requests
        # The chaos schedule actually fired: otherwise the oracle is
        # vacuous.
        assert sum(cell.gw_crashes for cell in result.cells.values()) > 0

    def test_oracle_cells_really_ran_without_gateway_failures(self):
        result = run_recovery(FAST, shards=1)
        for cell in result.oracle_cells.values():
            assert cell.gw_crashes == 0
            assert cell.redispatched == 0

    def test_violations_surface_in_result_and_render(self):
        result = run_recovery(FAST, shards=1)
        result.cells[0].violations.append("g0: injected for test")
        assert not result.ok
        assert "UNSOUND" in render_recovery(result)


class TestWorkerInvariance:
    def test_shards_1_2_4_byte_identical(self):
        """Same seed ⇒ byte-identical trace + render for any worker
        count, with gateway crashes enabled (the PR's headline claim)."""
        reference = _snapshot(FAST, shards=1)
        for shards in (2, 4):
            assert _snapshot(FAST, shards=shards, parallel=False) == reference

    def test_real_process_pool_matches_inline(self):
        reference = _snapshot(FAST, shards=1)
        assert _snapshot(FAST, shards=2) == reference

    def test_render_mentions_no_worker_count(self):
        rendered = render_recovery(run_recovery(FAST, shards=2, parallel=False))
        assert "shard" not in rendered.lower().replace("cluster-recovery", "")
        assert "worker" not in rendered.lower()


class TestTrace:
    def test_trace_is_canonical_jsonl(self, tmp_path):
        result = run_recovery(FAST, shards=1)
        path = tmp_path / "trace.jsonl"
        write_records_jsonl(result.records, str(path))
        lines = path.read_text().splitlines()
        assert len(lines) == len(result.records)
        for line in lines:
            record = json.loads(line)
            assert json.dumps(
                record, sort_keys=True, separators=(",", ":")
            ) == line
        kinds = {json.loads(line)["kind"] for line in lines}
        assert "request" in kinds and "gw-crash" in kinds

    def test_every_request_appears_exactly_once(self):
        result = run_recovery(FAST, shards=1)
        origins = sorted(
            record["req"]
            for record in result.records
            if record["kind"] == "request"
        )
        assert origins == list(range(FAST.requests))


class TestRegistry:
    def test_cluster_recovery_spec_registered(self):
        spec = {s.id: s for s in all_specs()}["cluster_recovery"]
        assert "oracle" in spec.title.lower() or "recovery" in spec.title.lower()
        assert spec.fast_estimate_s > 0

    def test_spec_runs_fast_and_reports_rows(self):
        from repro.experiments.registry import ExperimentConfig, get

        spec = get("cluster_recovery")
        result = spec.run(ExperimentConfig(fast=True, seed=2, shards=1))
        rows = result.rows()
        assert rows and all("p99_us" in row for row in rows)
        assert all(row["oracle_ok"] for row in rows)
        assert "cluster-recovery:" in result.summary()


class TestCli:
    def test_gateways_flags_parse(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            [
                "chaos", "cluster", "--gateways", "3",
                "--gateway-failure-rate", "0.4", "--failure-rate", "0",
            ]
        )
        assert args.gateways == 3
        assert args.gateway_failure_rate == 0.4

    def test_chaos_gateways_runs_and_writes_trace(self, tmp_path, capsys):
        from repro.cli import main

        trace_path = tmp_path / "trace.jsonl"
        code = main(
            [
                "chaos", "cluster", "--gateways", "2",
                "--gateway-failure-rate", "0.3", "--failure-rate", "0",
                "--groups", "2", "--requests", "80", "--seed", "5",
                "--trace-out", str(trace_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "cluster-recovery: groups=2 gateways=2" in out
        assert "oracle: zero-failure twin outcomes identical" in out
        record = json.loads(trace_path.read_text().splitlines()[0])
        assert {"t", "shard", "kind"} <= set(record)

    def test_invalid_gateway_rate_exits_2(self, capsys):
        from repro.cli import main

        code = main(
            ["chaos", "cluster", "--gateways", "2",
             "--gateway-failure-rate", "1.5"]
        )
        assert code == 2
        assert "gateway_failure_rate" in capsys.readouterr().err


class TestGolden:
    def test_fast_seed0_summary_matches_golden(self):
        """The fast study's rendered summary, byte for byte, as captured
        while each gateway shard built its own cluster inline."""
        golden = (
            Path(__file__).parent / "golden" / "cluster_recovery_fast_seed0.txt"
        )
        summary = registry.get("cluster_recovery").run(
            ExperimentConfig(fast=True, seed=0)
        ).summary()
        assert summary + "\n" == golden.read_text()


class TestHostObjectBudget:
    """A cell's hosts build a general run queue only for a vCPU."""

    def test_built_queues_are_reserved_plus_used(self, monkeypatch):
        used = set()
        for name in ("enqueue_sorted", "enqueue_sorted_without_load"):
            original = getattr(RunQueue, name)

            def record(self, *args, _original=original):
                used.add(self)
                return _original(self, *args)

            monkeypatch.setattr(RunQueue, name, record)
        cluster = _build_cluster("horse", FAST, seed=5)
        for index in range(len(cluster.hosts)):
            cluster.trigger_on(index, "background", StartType.WARM)
            cluster.trigger_on(index, "firewall", StartType.HORSE)
        cluster.engine.run()

        for platform in cluster.hosts:
            host = platform.virt.host
            general_used = {
                rq for rq in used
                if not rq.reserved_for_ull and host.runqueues.get(rq.runqueue_id) is rq
            }
            expected = len(host.ull_runqueues()) + len(general_used)
            assert general_used
            assert len(host.runqueues) == expected < host.spec.total_cores
            sandboxes = [
                sandbox
                for name in ("firewall", "background")
                for sandbox in platform.pool.idle_sandboxes(name)
            ]
            assert runqueue_checker(host)(cluster.engine.now) == []
            assert lifecycle_checker(host, sandboxes)(cluster.engine.now) == []
            assert dvfs_sample_checker(host)(cluster.engine.now) == []
            assert len(host.runqueues) == expected


class TestRetentionBudget:
    #: GC-tracked objects one cell may leave, counted with the cyclic
    #: collector off, whatever its request count.  Once
    #: run_recovery_cell has closed the cell only its outcome survives:
    #: the dataclass and its four lists (latencies, recovery latencies,
    #: violations, trace records), 5 on CPython 3.11 at seed 0, group 0.
    #: While the engine, the pool's eviction hook, the breaker gate,
    #: the policy and the journal pointed back at their owners, the
    #: same cell left 1,777 (25 per request).
    PER_CELL = 8

    def _cell(self):
        config = ClusterRecoveryConfig(requests=300, seed=0, dispatch="pull")
        arrivals = _arrival_plan(config, config.groups)[0]
        return arrivals, cell_leftovers(
            lambda: run_recovery_cell(config, 0, arrivals)
        )

    def test_cell_leaves_few_tracked_objects_per_request(self):
        arrivals, (outcome, left, _) = self._cell()
        assert outcome.submitted == len(arrivals) > 50
        assert left <= self.PER_CELL, (
            f"{left} tracked objects left by {outcome.submitted} requests"
        )

    def test_cell_leaves_nothing_for_the_cyclic_collector(self):
        _, (_, _, unreachable) = self._cell()
        assert unreachable == 0


def test_obs_on_cell_leaves_no_frozen_export_registered():
    # Closing a cell freezes every host's count export, which flushes
    # its counts and leaves the registry: nothing frozen stays behind
    # to be called on every later snapshot.
    from repro.obs import NULL_TRACER, MetricRegistry, Observability, activate

    config = ClusterRecoveryConfig(requests=120, seed=0, dispatch="pull")
    arrivals = _arrival_plan(config, config.groups)[0]
    metrics = MetricRegistry()
    with activate(Observability(NULL_TRACER, metrics)):
        run_recovery_cell(config, 0, arrivals)
    assert metrics._collectors == []
    assert metrics.snapshot()["load.fold.coalesced"]["value"] > 0


def test_obs_on_run_leaves_no_pending_tally():
    # Closing a cell also folds the registry's tallies, so the
    # per-latency completion keys each cell writes are not kept until
    # the registry is next read.  The fold is exact, so the values read
    # afterwards are unchanged (tests/resilience/test_metric_snapshot.py
    # pins them).
    from repro.obs import NULL_TRACER, MetricRegistry, Observability, activate

    metrics = MetricRegistry()
    with activate(Observability(NULL_TRACER, metrics)):
        run_recovery(ClusterRecoveryConfig(groups=2, requests=200, seed=0), shards=1)
    assert len(metrics._tallies) >= 4  # resume, pause and completion tallies
    assert all(not tally for tally in metrics._tallies.values())
    assert metrics.snapshot()["invocation.total_ns"]["count"] > 0
