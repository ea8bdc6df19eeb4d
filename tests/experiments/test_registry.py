"""Experiment registry: spec shape, protocol surface, CLI contract.

Every experiment the CLI exposes is a registered :class:`ExperimentSpec`
whose ``run()`` yields an :class:`ExperimentResult` supporting the
``rows()`` / ``summary()`` / ``to_json()`` protocol.  The cheap specs
are smoke-run end to end; the rest are checked structurally so the
suite stays fast.
"""

import importlib
import inspect
import json
from pathlib import Path

import pytest

from repro.experiments.registry import (
    ExperimentConfig,
    ExperimentResult,
    ExperimentSpec,
    all_specs,
    experiment_ids,
    get,
)

EXPECTED_IDS = {
    "table1",
    "figure1",
    "figure2",
    "figure3",
    "figure4",
    "overhead",
    "colocation",
    "chaos",
    "cluster_recovery",
    "cluster_sharded",
    "cluster_study",
    "dispatch_zoo",
    "pool_study",
    "prewarm_frontier",
    "slo",
    "transport_sensitivity",
    "ablations",
}

#: The specs whose drivers model no hypervisor platform.
PLATFORMLESS_IDS = {
    "ablations",
    "chaos",
    "cluster_recovery",
    "cluster_sharded",
    "cluster_study",
    "dispatch_zoo",
    "pool_study",
    "prewarm_frontier",
    "transport_sensitivity",
}


def _load(target):
    module, _, name = target.partition(":")
    return getattr(importlib.import_module(module), name)


#: Cheap enough to execute in the tier-1 suite (fast mode).
SMOKE_IDS = ("table1", "figure2", "overhead", "transport_sensitivity")


class TestRegistryShape:
    def test_all_expected_experiments_registered(self):
        assert set(experiment_ids()) == EXPECTED_IDS

    def test_specs_are_well_formed(self):
        for spec in all_specs():
            assert isinstance(spec, ExperimentSpec)
            assert spec.id and spec.id == spec.id.strip()
            assert spec.title
            assert spec.fast_estimate_s > 0
            assert callable(_load(spec.driver))
            assert callable(_load(spec.render))

    def test_get_unknown_id_raises_keyerror(self):
        with pytest.raises(KeyError):
            get("no-such-experiment")

    def test_ids_are_sorted_and_stable(self):
        assert list(experiment_ids()) == sorted(experiment_ids())
        assert [spec.id for spec in all_specs()] == list(experiment_ids())


class TestExperimentConfig:
    def test_fast_mode_shrinks_workload(self):
        """Full mode is the driver's (or its config class's) defaults;
        each ``fast`` entry names one of its parameters, not a knob the
        config forwards, and shrinks that parameter's default: a smaller
        number, a sweep with fewer points, or the driver's own ``fast``
        switch turned on."""
        for spec in all_specs():
            parameters = inspect.signature(
                _load(spec.config_class or spec.driver)
            ).parameters
            for name, value in spec.fast.items():
                assert name not in {"seed", "platform", "shards"}
                default = parameters[name].default
                if isinstance(value, bool):  # the driver's own fast switch
                    assert value and default is False, (spec.id, name)
                elif isinstance(value, tuple):
                    assert len(value) < len(default), (spec.id, name)
                else:
                    assert value < default, (spec.id, name)

    def test_defaults(self):
        config = ExperimentConfig()
        assert config.fast is True
        assert config.seed == 0
        assert config.platform == "firecracker"


class TestResultProtocol:
    @pytest.fixture(scope="class")
    def results(self):
        config = ExperimentConfig(fast=True, seed=0)
        return {spec_id: get(spec_id).run(config) for spec_id in SMOKE_IDS}

    def test_run_returns_experiment_result(self, results):
        for result in results.values():
            assert isinstance(result, ExperimentResult)
            assert result.raw is not None

    def test_rows_are_flat_json_scalars(self, results):
        for spec_id, result in results.items():
            rows = result.rows()
            assert rows, spec_id
            for row in rows:
                assert isinstance(row, dict)
                for key, value in row.items():
                    assert isinstance(key, str)
                    assert value is None or isinstance(
                        value, (str, int, float, bool)
                    ), f"{spec_id}: {key}={value!r}"

    def test_summary_is_rendered_text(self, results):
        for spec_id, result in results.items():
            summary = result.summary()
            assert isinstance(summary, str) and summary.strip(), spec_id

    def test_to_json_round_trips(self, results):
        for spec_id, result in results.items():
            payload = json.loads(result.to_json())
            assert payload["experiment"] == spec_id
            assert payload["title"] == get(spec_id).title
            assert payload["rows"] == result.rows()

    def test_same_seed_same_rows(self):
        config = ExperimentConfig(fast=True, seed=42)
        first = get("table1").run(config).rows()
        second = get("table1").run(config).rows()
        assert first == second


class TestCliContract:
    def test_cli_experiments_table_mirrors_registry(self, capsys):
        """``repro list`` is the CLI's experiment table: every spec's id
        and title, straight from the registry."""
        from repro.cli import main

        assert main(["list"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == len(EXPECTED_IDS)
        for spec, line in zip(all_specs(), lines):
            assert line.split()[0] == spec.id
            assert line.endswith(spec.title)


class TestPlatform:
    """A ``--platform`` the spec does not model fails before it runs;
    the default platform and the specs that model one still run."""

    def test_specs_that_model_no_platform_refuse_xen(self):
        refused = set()
        for spec in all_specs():
            try:
                spec.bind(ExperimentConfig(platform="xen"))
            except ValueError as exc:
                assert f"--platform xen: {spec.id!r}" in str(exc)
                refused.add(spec.id)
        assert refused == PLATFORMLESS_IDS

    @pytest.mark.parametrize("command", ["experiment", "trace", "profile", "check"])
    def test_every_command_exits_2_naming_flag_and_id(
        self, command, tmp_path, capsys
    ):
        from repro.cli import main

        argv = [command, "transport_sensitivity", "--fast", "--platform", "xen"]
        if command in ("trace", "profile"):
            argv += ["--out-dir", str(tmp_path / "out")]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--platform xen" in captured.err
        assert "'transport_sensitivity'" in captured.err
        assert not (tmp_path / "out").exists()

    def test_figure3_runs_on_xen(self, capsys):
        from repro.cli import main

        assert main(["experiment", "figure3", "--fast", "--platform", "xen"]) == 0
        assert capsys.readouterr().out.startswith(
            f"== {get('figure3').title} (xen) ==\n"
        )


class TestGolden:
    """Every spec at ``--fast --seed 0``, byte for byte: its rendered
    summary (``repro experiment <id>`` prints it under the title
    header) and its ``--json`` export, both from one run."""

    @pytest.mark.parametrize("spec_id", sorted(EXPECTED_IDS))
    def test_fast_seed0_output_matches_golden(self, spec_id):
        golden = Path(__file__).parent / "golden"
        result = get(spec_id).run(ExperimentConfig(fast=True, seed=0))
        summary = (golden / f"{spec_id}_fast_seed0.txt").read_text()
        assert result.summary() + "\n" == summary
        exported = (golden / f"{spec_id}_fast_seed0.json").read_text()
        assert result.to_json() + "\n" == exported


class TestFullAblations:
    """Full mode runs every ablation study the repo has, and each one's
    rows stay flat, finite JSON scalars."""

    def test_rows_name_all_seven_ablations_with_finite_scalars(self):
        import math

        rows = get("ablations").run(ExperimentConfig(fast=False, seed=0)).rows()
        assert {row["ablation"] for row in rows} == {
            "dispatch_interference",
            "mechanism_split",
            "platform",
            "precompute_churn",
            "restore_prefetch",
            "skip_vs_coalesce",
            "ull_runqueue_count",
        }
        for row in rows:
            for value in row.values():
                assert isinstance(value, (str, int, float, bool)), row
                if isinstance(value, float):
                    assert math.isfinite(value), row
        by_name = {row["ablation"]: row for row in rows}
        assert "effective_ready_ns" in by_name["restore_prefetch"]
        assert {"mean_delta_us", "p99_delta_us"} <= set(
            by_name["dispatch_interference"]
        )
        json.loads(json.dumps(rows, allow_nan=False))


class TestInstrumentationDoesNotPerturb:
    """Observability, the subsystem profiler and the invariant checkers
    only watch: every spec's fast seed-0 summary and rows are the same
    with any of them in the run context."""

    @pytest.mark.parametrize("spec_id", sorted(EXPECTED_IDS))
    def test_obs_and_profiler_leave_results_unchanged(self, spec_id):
        from repro.check import InvariantRegistry, report_run
        from repro.obs import MetricRegistry, Observability, Tracer, activate
        from repro.obs.profile import SubsystemProfiler

        spec = get(spec_id)
        config = ExperimentConfig(fast=True, seed=0)

        def observed():
            result = spec.run(config)
            return result.summary(), result.rows()

        plain = observed()
        with activate(Observability(Tracer(), MetricRegistry())):
            traced = observed()
        with activate(profiler=SubsystemProfiler(spec_id)):
            profiled = observed()
        invariants = InvariantRegistry()
        with activate(invariants=invariants):
            checked = observed()
        assert traced == plain
        assert profiled == plain
        assert checked == plain
        report = report_run(spec_id, "firecracker", invariants)
        assert report.ok, report.render()

    @pytest.mark.parametrize("spec_id", sorted(EXPECTED_IDS))
    def test_profiler_names_every_site(self, spec_id):
        from repro.obs import activate
        from repro.obs.profile import SubsystemProfiler

        profiler = SubsystemProfiler(spec_id)
        with activate(profiler=profiler):
            get(spec_id).run(ExperimentConfig(fast=True, seed=0))
        unnamed = sorted(
            f"{phase};{subsystem};{site}"
            for phase, subsystem, site in profiler._sites
            if subsystem.startswith("other.")
        )
        assert unnamed == []
