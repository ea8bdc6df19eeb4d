"""Experiment registry: spec shape, protocol surface, CLI contract.

Every experiment the CLI exposes is a registered :class:`ExperimentSpec`
whose ``run()`` yields an :class:`ExperimentResult` supporting the
``rows()`` / ``summary()`` / ``to_json()`` protocol.  The cheap specs
are smoke-run end to end; the rest are checked structurally so the
suite stays fast.
"""

import json

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
            assert callable(spec.runner)
            assert callable(spec.renderer)
            assert callable(spec.rows_fn)

    def test_get_unknown_id_raises_keyerror(self):
        with pytest.raises(KeyError):
            get("no-such-experiment")

    def test_ids_are_sorted_and_stable(self):
        assert list(experiment_ids()) == sorted(experiment_ids())
        assert [spec.id for spec in all_specs()] == list(experiment_ids())


class TestExperimentConfig:
    def test_fast_mode_shrinks_workload(self):
        fast = ExperimentConfig(fast=True)
        full = ExperimentConfig(fast=False)
        assert fast.repetitions < full.repetitions
        assert len(fast.vcpu_sweep) < len(full.vcpu_sweep)
        assert set(fast.vcpu_sweep) <= set(full.vcpu_sweep)

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


class TestInstrumentationDoesNotPerturb:
    """Observability and the subsystem profiler only watch: every spec's
    fast seed-0 summary and rows are the same with either switched on."""

    @pytest.mark.parametrize("spec_id", sorted(EXPECTED_IDS))
    def test_obs_and_profiler_leave_results_unchanged(self, spec_id):
        from repro.obs import MetricRegistry, Observability, Tracer, activate
        from repro.obs.profile import SubsystemProfiler, profiling

        spec = get(spec_id)
        config = ExperimentConfig(fast=True, seed=0)

        def observed():
            result = spec.run(config)
            return result.summary(), result.rows()

        plain = observed()
        with activate(Observability(Tracer(), MetricRegistry())):
            traced = observed()
        with profiling(SubsystemProfiler(spec_id)):
            profiled = observed()
        assert traced == plain
        assert profiled == plain
