"""Deterministic subsystem profiler: classification, artifacts, CLI.

The determinism check shells out twice: sandbox/invocation ids are
process-global counters, so only two fresh processes with the same seed
can be compared byte-for-byte (same pattern as the chaos CLI test).
"""

import gc
import json
import os
import subprocess
import sys

from repro.obs.context import activate, current_run
from repro.obs.profile import STEM_SUBSYSTEMS, SubsystemProfiler
from repro.sim.engine import Engine

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


def cli_profile(out_dir, *extra):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, "-m", "repro", "profile", "chaos",
         "--fast", "--seed", "3", "--out-dir", str(out_dir), *extra],
        capture_output=True, env=env, text=True,
    )


class TestClassification:
    def test_label_stem_maps_to_subsystem(self):
        profiler = SubsystemProfiler()
        profiler.record("slice:core0:17", 10, 5)
        ((key, cell),) = profiler._sites.items()
        assert key == ("main", "hypervisor.dispatch", "slice")
        assert cell == [1, 10, 5]

    def test_unknown_stem_surfaces_as_other(self):
        profiler = SubsystemProfiler()
        profiler.record("mystery-event:42", 1, 1)
        ((key, _),) = profiler._sites.items()
        assert key == ("main", "other.mystery-event", "mystery-event")

    def test_empty_label_is_unlabeled_process_work(self):
        profiler = SubsystemProfiler()
        profiler.record("", 1, 1)
        ((key, _),) = profiler._sites.items()
        assert key == ("main", "sim.process", "unlabeled")

    def test_capacity_wake_has_a_named_subsystem(self):
        # The parking-lot wake event must never show up as other.*.
        assert (
            STEM_SUBSYSTEMS["resilience-capacity-wake"]
            == "resilience.capacity"
        )

    def test_phase_separates_attribution(self):
        profiler = SubsystemProfiler()
        profiler.record("slice:1", 1, 1)
        profiler.phase("second")
        profiler.record("slice:1", 1, 1)
        phases = sorted(phase for phase, _, _ in profiler._sites)
        assert phases == ["main", "second"]

    def test_cancelled_events_get_a_synthetic_site(self):
        profiler = SubsystemProfiler()
        profiler.record_cancelled()
        profiler.record_cancelled()
        cell = profiler._sites[("main", "sim.engine", "cancelled")]
        assert cell == [2, 0, 0]

    def test_classify_cache_holds_one_entry_per_label_stem(self):
        from repro.experiments.chaos import ChaosConfig, run_chaos

        profiler = SubsystemProfiler()
        with activate(profiler=profiler):
            run_chaos(ChaosConfig(hosts=2, requests=200, seed=0))
        # Per-invocation labels (complete:<id>, ...) share their stem's entry.
        stems = {site for _, _, site in profiler._sites} - {"cancelled"}
        assert set(profiler._classify_cache) == {
            "" if site == "unlabeled" else site for site in stems
        }


class TestArtifacts:
    def _loaded(self):
        profiler = SubsystemProfiler("unit")
        profiler.record("slice:0", 100, 7)
        profiler.record("slice:1", 50, 3)
        profiler.record("complete:9", 25, 2)
        return profiler

    def test_collapsed_stacks_format_and_order(self):
        text = self._loaded().collapsed_stacks()
        assert text.endswith("\n")
        assert text.splitlines() == [
            "unit;main;hypervisor.dispatch;slice 2",
            "unit;main;faas.gateway;complete 1",
        ]

    def test_hotspot_table_shares_sum_to_one(self):
        table = self._loaded().hotspot_table()
        assert table["total_samples"] == 3
        assert table["total_sim_ns"] == 175
        assert sum(row["sample_share"] for row in table["hotspots"]) == 1.0
        # Hottest first; ties broken by key so order is a total order.
        assert table["hotspots"][0]["site"] == "slice"

    def test_hotspot_table_empty_profiler(self):
        table = SubsystemProfiler().hotspot_table()
        assert table["total_samples"] == 0
        assert table["hotspots"] == []

    def test_hotspot_json_is_stable_under_insertion_order(self):
        first = self._loaded()
        second = SubsystemProfiler("unit")
        second.record("complete:9", 25, 2)
        second.record("slice:1", 50, 3)
        second.record("slice:0", 100, 7)
        assert first.hotspot_json() == second.hotspot_json()
        json.loads(first.hotspot_json())  # stays valid JSON

    def test_hotspot_text_limit(self):
        text = self._loaded().hotspot_text(limit=1)
        assert "slice" in text
        assert "complete" not in text

    def test_wall_fields_stay_out_of_deterministic_artifacts(self):
        profiler = self._loaded()
        profiler.scheduler_wall_ns = 123456
        assert "123456" not in profiler.collapsed_stacks()
        assert "wall" not in profiler.hotspot_json()

    def test_named_coverage(self):
        assert SubsystemProfiler().named_coverage() == 1.0
        profiler = SubsystemProfiler()
        profiler.record("slice:0", 1, 3)
        profiler.record("mystery:0", 1, 1)
        assert profiler.named_coverage() == 0.75


class TestGcAttribution:
    def test_collections_are_timed_only_inside_the_block(self):
        profiler = SubsystemProfiler("gc")
        with activate(profiler=profiler):
            assert profiler.on_gc in gc.callbacks
            gc.collect()
        assert profiler.on_gc not in gc.callbacks
        assert profiler.gc_collections[2] >= 1
        assert profiler.gc_wall_ns > 0
        counted = list(profiler.gc_collections)
        gc.collect()
        assert profiler.gc_collections == counted

    def test_wall_report_has_a_gc_line(self):
        profiler = SubsystemProfiler("gc")
        profiler.gc_wall_ns = 2_000_000
        profiler.gc_collections = [7, 2, 1]
        (line,) = [
            line for line in profiler.wall_report().splitlines()
            if line.split()[0] == "gc"
        ]
        assert "2.00 ms" in line
        assert line.endswith("collections gen0/1/2 7/2/1")

    def test_collection_inside_a_callback_is_moved_to_gc(self):
        profiler = SubsystemProfiler("gc")
        with activate(profiler=profiler):
            engine = Engine()
            engine.schedule_at(10, gc.collect, label="slice:0")
            engine.run()
        (cell,) = profiler._sites.values()
        assert profiler.gc_wall_ns > 0
        # The callback did nothing but collect: what is left of its
        # wall time is the call itself, far below the collection.
        assert cell[2] < profiler.gc_wall_ns

    def test_gc_stays_out_of_deterministic_artifacts(self):
        profiler = SubsystemProfiler("probe")
        with activate(profiler=profiler):
            gc.collect()
        assert "gc" not in profiler.collapsed_stacks()
        assert '"gc' not in profiler.hotspot_json()


class TestEngineHookup:
    def test_engine_inside_block_records_events(self):
        profiler = SubsystemProfiler("hooked")
        with activate(profiler=profiler):
            assert current_run().profiler is profiler
            engine = Engine()
            engine.schedule_at(10, lambda: None, label="slice:0")
            doomed = engine.schedule_at(20, lambda: None, label="slice:1")
            doomed.cancelled = True
            engine.run()
        assert current_run().profiler is None
        table = profiler.hotspot_table()
        sites = {
            (row["subsystem"], row["site"]): row["samples"]
            for row in table["hotspots"]
        }
        assert sites[("hypervisor.dispatch", "slice")] == 1
        assert sites[("sim.engine", "cancelled")] == 1
        # Sim time is attributed to the event that consumed it.
        assert table["total_sim_ns"] == 10

    def test_engine_outside_block_is_unprofiled(self):
        engine = Engine()
        assert engine._profiler is None


class TestCliDeterminism:
    def test_same_seed_artifacts_byte_identical(self, tmp_path):
        first = cli_profile(tmp_path / "a")
        second = cli_profile(tmp_path / "b")
        assert first.returncode == 0, first.stderr
        assert second.returncode == 0, second.stderr

        for name in ("chaos.collapsed", "chaos.hotspots.json"):
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b, f"{name} differs across identical runs"
            assert a

        # stdout is deterministic except the --out-dir paths themselves.
        strip = lambda out: [
            line for line in out.splitlines()
            if not line.startswith("wrote ")
        ]
        assert strip(first.stdout) == strip(second.stdout)

    def test_artifacts_name_every_chaos_subsystem(self, tmp_path):
        result = cli_profile(tmp_path)
        assert result.returncode == 0, result.stderr
        table = json.loads((tmp_path / "chaos.hotspots.json").read_text())
        unnamed = [
            row for row in table["hotspots"]
            if row["subsystem"].startswith("other.")
        ]
        assert not unnamed, f"unclassified chaos work: {unnamed}"
        phases = {row["phase"] for row in table["hotspots"]}
        assert phases == {"breaker", "retries-only", "vanilla"}
