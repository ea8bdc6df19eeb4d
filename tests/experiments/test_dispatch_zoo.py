"""Dispatch-policy zoo: cross-product structure, soundness, determinism."""

from pathlib import Path

import pytest

from repro.experiments.dispatch_zoo import (
    DISPATCH_MIXES,
    ZOO_POLICIES,
    DispatchZooConfig,
    render_dispatch_zoo,
    run_dispatch_zoo,
    run_zoo_cell,
)
from repro.experiments import registry
from repro.experiments.registry import ExperimentConfig
from tests.retention import cell_leftovers

FAST = DispatchZooConfig(
    hosts=2, requests=80, failure_rates=(0.1,), mixes=("balanced", "accel")
)


@pytest.fixture(scope="module")
def result():
    return run_dispatch_zoo(FAST)


class TestConfig:
    def test_default_policies_are_all_registered_families(self):
        from repro.resilience.policies import DISPATCH_POLICIES

        assert ZOO_POLICIES == tuple(DISPATCH_POLICIES.families())

    def test_validation(self):
        with pytest.raises(ValueError):
            DispatchZooConfig(hosts=1)
        with pytest.raises(ValueError):
            DispatchZooConfig(failure_rates=(1.5,))
        with pytest.raises(ValueError):
            DispatchZooConfig(mixes=("nope",))


class TestCrossProduct:
    def test_every_cell_present(self, result):
        expected = {
            (policy, rate, mix)
            for mix in FAST.mixes
            for rate in FAST.failure_rates
            for policy in ZOO_POLICIES
        }
        assert set(result.cells) == expected

    def test_every_cell_sound(self, result):
        for key, cell in result.cells.items():
            assert cell.ok, (key, cell.violations)
            assert cell.resolved == cell.submitted

    def test_identical_arrival_schedule_across_policies(self, result):
        """Same (mix, rate): every policy sees the same per-class
        submission counts — the schedule is policy-independent."""
        for mix in FAST.mixes:
            for rate in FAST.failure_rates:
                per_policy = [
                    {
                        cls: stats.submitted
                        for cls, stats in result.cell(p, rate, mix).classes.items()
                    }
                    for p in ZOO_POLICIES
                ]
                assert all(counts == per_policy[0] for counts in per_policy)

    def test_accel_mix_adds_the_gpu_class(self, result):
        policy = ZOO_POLICIES[0]
        rate = FAST.failure_rates[0]
        assert "infer" in result.cell(policy, rate, "accel").classes
        assert "infer" not in result.cell(policy, rate, "balanced").classes

    def test_class_stats_partition_the_cell(self, result):
        for cell in result.cells.values():
            assert sum(s.submitted for s in cell.classes.values()) == (
                cell.submitted
            )
            assert sum(s.completed for s in cell.classes.values()) == (
                cell.completed
            )


class TestDeterminismAndRender:
    def test_same_seed_byte_identical(self):
        small = DispatchZooConfig(
            hosts=2, requests=40, failure_rates=(0.1,), mixes=("balanced",)
        )
        first = render_dispatch_zoo(run_dispatch_zoo(small))
        second = render_dispatch_zoo(run_dispatch_zoo(small))
        assert first == second

    def test_render_has_a_row_per_policy_class(self, result):
        rendered = render_dispatch_zoo(result)
        for policy in ZOO_POLICIES:
            assert policy in rendered
        assert "p99 us" in rendered
        assert "UNSOUND" not in rendered

    def test_rows_are_flat_scalars(self, result):
        rows = result.rows()
        assert len(rows) == sum(
            len(cell.classes) for cell in result.cells.values()
        )
        for row in rows:
            assert set(row) == {
                "policy", "failure_rate", "mix", "cls", "submitted",
                "completed", "shed", "failed", "p50_us", "p99_us", "ok",
            }
            for value in row.values():
                assert isinstance(value, (str, int, float, bool))


class TestRegistry:
    def test_fast_registry_run(self):
        from repro.experiments.registry import ExperimentConfig, get

        run = get("dispatch_zoo").run(ExperimentConfig(fast=True, seed=0))
        rows = run.rows()
        assert rows
        assert run.summary().startswith("dispatch zoo:")
        policies = {row["policy"] for row in rows}
        assert policies == set(ZOO_POLICIES)

    def test_mixes_constant_is_the_full_set(self):
        assert DISPATCH_MIXES == ("balanced", "ull-heavy", "accel")


class TestGolden:
    def test_fast_seed0_summary_matches_golden(self):
        """The fast zoo's rendered table, byte for byte, as captured
        while the zoo still built its own stack."""
        golden = Path(__file__).parent / "golden" / "dispatch_zoo_fast_seed0.txt"
        summary = registry.get("dispatch_zoo").run(
            ExperimentConfig(fast=True, seed=0)
        ).summary()
        assert summary + "\n" == golden.read_text()


class TestRetention:
    @pytest.mark.parametrize("mix", FAST.mixes)
    def test_cell_leaves_nothing_for_the_cyclic_collector(self, mix):
        # A zoo cell runs the chaos study's stack and closes it the same
        # way: only the returned ZooCell (about 5 objects) stays tracked.
        cell, left, unreachable = cell_leftovers(
            lambda: run_zoo_cell("mqfq-sticky", 0.1, mix, FAST)
        )
        assert cell.submitted == FAST.requests
        assert unreachable == 0
        assert left <= 10, f"{left} tracked objects left"

