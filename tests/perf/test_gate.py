"""Perf gate: row schema, baseline check logic, CLI plumbing.

The actual throughput numbers are machine-dependent, so the tests here
never assert on speed — they pin the BENCH_sim_kernel.json row schema,
the calibration-normalized regression verdicts, the ratio gates, and
the argument plumbing shared by ``repro bench`` and
``benchmarks/perf_gate.py``.
"""

import json

import pytest

from repro.perf.gate import (
    BENCH_BASELINE,
    BENCHES,
    build_parser,
    check_against_baseline,
    main,
    run_benches,
)


def _row(bench, events_per_sec, seed=7):
    return {
        "bench": bench,
        "events_per_sec": float(events_per_sec),
        "wall_s": 0.1,
        "seed": seed,
        "py": "3.11",
    }


class TestRunBenches:
    def test_rows_match_baseline_schema(self):
        rows = run_benches(quick=True, only=["calibration"])
        assert len(rows) == 1
        row = rows[0]
        assert set(row) == {"bench", "events_per_sec", "wall_s", "seed", "py", "obs"}
        assert row["bench"] == "calibration"
        assert row["events_per_sec"] > 0
        assert row["wall_s"] > 0
        assert row["obs"] == "off"

    def test_unknown_bench_rejected(self):
        with pytest.raises(ValueError, match="unknown bench"):
            run_benches(only=["warp_drive"])

    def test_expected_suite_members(self):
        assert set(BENCHES) == {
            "calibration",
            "engine_heap_chaos",
            "p2sm_merge",
            "coalesced_load",
            "chaos_e2e",
            "chaos_e2e_obs_on",
            "cluster_study_e2e",
            "replay_e2e",
            "cluster_sharded_serial",
            "cluster_sharded",
        }


class TestEngineBenchShape:
    """The engine bench replays the push mix measured on a full-size
    chaos engine (DESIGN.md §10), not a shape of its own."""

    def test_push_mix_follows_the_measured_shares(self):
        from repro.perf.gate import _KEEPALIVE_NS, _TIMER_DECILES, _chaos_pushes

        pushes = _chaos_pushes(40_000, 7)
        keepalives = [cancel for delay, cancel in pushes if delay == _KEEPALIVE_NS]
        timers = [
            cancel for delay, cancel in pushes
            if _TIMER_DECILES[0] <= delay < _KEEPALIVE_NS
        ]
        assert len(keepalives) / len(pushes) == pytest.approx(3_667 / 20_054, abs=0.01)
        assert len(timers) / len(pushes) == pytest.approx(4_764 / 20_054, abs=0.01)
        assert sum(keepalives) / len(keepalives) == pytest.approx(0.94, abs=0.02)
        assert sum(timers) / len(timers) == pytest.approx(0.10, abs=0.02)

    def test_cell_fires_chaos_events_per_push(self):
        """Chaos fires one event per 1.27 pushes; a cell, with its
        keep-alives left pending, lands within a few percent."""
        from repro.perf.gate import _CELL_PUSHES, _CHAINS, _chaos_pushes, _drive_cell

        cell = _chaos_pushes(_CELL_PUSHES, 7)
        fired = _drive_cell(cell, 7)
        assert (len(cell) + _CHAINS) / fired == pytest.approx(1.27, abs=0.04)


class TestCheckAgainstBaseline:
    def test_within_tolerance_passes(self):
        rows = [_row("calibration", 100.0), _row("p2sm_merge", 90.0)]
        baseline = [_row("calibration", 100.0), _row("p2sm_merge", 100.0)]
        assert check_against_baseline(rows, baseline, tolerance=0.15, log=lambda _: None)

    def test_regression_beyond_tolerance_fails(self):
        rows = [_row("calibration", 100.0), _row("p2sm_merge", 80.0)]
        baseline = [_row("calibration", 100.0), _row("p2sm_merge", 100.0)]
        assert not check_against_baseline(
            rows, baseline, tolerance=0.15, log=lambda _: None
        )

    def test_calibration_normalizes_slower_machine(self):
        # Half-speed machine, half-speed scores: no regression.
        rows = [_row("calibration", 50.0), _row("p2sm_merge", 50.0)]
        baseline = [_row("calibration", 100.0), _row("p2sm_merge", 100.0)]
        assert check_against_baseline(rows, baseline, tolerance=0.15, log=lambda _: None)

    def test_unknown_current_bench_is_ignored(self):
        rows = [_row("brand_new_bench", 1.0)]
        assert check_against_baseline(rows, [], log=lambda _: None)

    def test_obs_overhead_gate_passes_and_fails_on_budget(self):
        cheap = [_row("chaos_e2e", 100.0), _row("chaos_e2e_obs_on", 97.0)]
        costly = [_row("chaos_e2e", 100.0), _row("chaos_e2e_obs_on", 90.0)]
        assert check_against_baseline(
            cheap, [], max_obs_overhead=0.05, log=lambda _: None
        )
        assert not check_against_baseline(
            costly, [], max_obs_overhead=0.05, log=lambda _: None
        )

    def test_obs_overhead_gate_skipped_without_both_benches(self):
        rows = [_row("chaos_e2e", 100.0)]
        assert check_against_baseline(
            rows, [], max_obs_overhead=0.0, log=lambda _: None
        )

    @staticmethod
    def _sharded_rows(parallel_eps, cores):
        serial = _row("cluster_sharded_serial", 100.0)
        serial.update({"shards": 1, "cores": cores})
        parallel = _row("cluster_sharded", parallel_eps)
        parallel.update({"shards": 4, "cores": cores})
        return [serial, parallel]

    def test_shard_speedup_gate_passes_and_fails_on_ratio(self):
        assert check_against_baseline(
            self._sharded_rows(250.0, cores=4), [],
            require_shard_speedup=2.0, log=lambda _: None,
        )
        assert not check_against_baseline(
            self._sharded_rows(150.0, cores=4), [],
            require_shard_speedup=2.0, log=lambda _: None,
        )

    def test_shard_speedup_gate_skipped_below_core_budget(self):
        # 1 core, 4 workers: scaling is physically unmeasurable, so even
        # a sub-1x ratio must not fail the gate.
        lines = []
        assert check_against_baseline(
            self._sharded_rows(60.0, cores=1), [],
            require_shard_speedup=2.0, log=lines.append,
        )
        assert any("skipped" in line for line in lines)

    def test_shard_speedup_gate_skipped_without_both_benches(self):
        rows = [_row("cluster_sharded", 100.0)]
        assert check_against_baseline(
            rows, [], require_shard_speedup=2.0, log=lambda _: None
        )


class TestCommittedBaseline:
    def test_committed_baseline_has_schema(self):
        with open(BENCH_BASELINE) as handle:
            rows = json.load(handle)
        base_keys = {"bench", "events_per_sec", "wall_s", "seed", "py", "obs"}
        for row in rows:
            if row["bench"].startswith("cluster_sharded"):
                # The sharded pair records its worker layout and the
                # measuring machine's core budget (gate is core-aware).
                assert set(row) == base_keys | {"shards", "cores"}
            else:
                assert set(row) == base_keys
        assert {row["bench"] for row in rows} == set(BENCHES)

    def test_committed_baseline_obs_overhead_within_budget(self):
        with open(BENCH_BASELINE) as handle:
            rows = json.load(handle)
        by_name = {row["bench"]: row for row in rows}
        obs_off = by_name["chaos_e2e"]["events_per_sec"]
        obs_on = by_name["chaos_e2e_obs_on"]["events_per_sec"]
        assert 1.0 - obs_on / obs_off <= 0.05


class TestCli:
    def test_parser_defaults(self):
        args = build_parser().parse_args([])
        assert args.quick is False
        assert args.seed == 7
        assert args.baseline == BENCH_BASELINE
        assert args.tolerance == 0.15
        assert args.max_obs_overhead is None
        assert args.require_shard_speedup is None

    def test_main_runs_subset_and_writes(self, tmp_path, capsys):
        out = tmp_path / "rows.json"
        code = main(["--quick", "--benches", "calibration", "--write", str(out)])
        assert code == 0
        rows = json.loads(out.read_text())
        assert [row["bench"] for row in rows] == ["calibration"]
        assert "calibration" in capsys.readouterr().out

    def test_main_rejects_unknown_bench(self, capsys):
        assert main(["--benches", "warp_drive"]) == 2

    def test_main_check_against_written_baseline(self, tmp_path, capsys):
        out = tmp_path / "baseline.json"
        assert main(["--quick", "--benches", "calibration", "--write", str(out)]) == 0
        code = main(
            [
                "--quick",
                "--benches",
                "calibration",
                "--check",
                "--baseline",
                str(out),
                "--tolerance",
                "0.5",
            ]
        )
        assert code == 0

    def test_main_check_missing_baseline_errors(self, tmp_path, capsys):
        code = main(["--quick", "--benches", "calibration", "--check",
                     "--baseline", str(tmp_path / "absent.json")])
        assert code == 2

    def test_repro_bench_subcommand_forwards(self, capsys):
        from repro.cli import main as cli_main

        code = cli_main(["bench", "--quick", "--benches", "calibration"])
        assert code == 0
        assert "calibration" in capsys.readouterr().out
