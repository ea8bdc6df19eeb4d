"""Prewarm frontier: the headline ordering must hold, not just run.

The claim under test (fast mode, seed 0): at the tight memory budget
only the hybrid-histogram policy keeps p99 init latency on the
HORSE-pausable tier; fixed keep-alive falls to the snapshot-restore
tier and only catches up at the ample budget (~1.6x the memory).
These tests pin that *ordering* — the frontier's story — rather than
exact latencies, so workload recalibration can move numbers without
breaking the experiment's meaning.
"""

import pytest

from repro.experiments.prewarm_frontier import (
    FRONTIER_BUDGET_FRACTIONS,
    FRONTIER_POLICIES,
    frontier_config,
    render_prewarm_frontier,
    run_prewarm_frontier,
)

HORSE_TIER_US = 1.0          # well above 0.132, well below restore
RESTORE_TIER_US = 1000.0     # ~1300 us


@pytest.fixture(scope="module")
def result():
    return run_prewarm_frontier(fast=True, seed=0)


@pytest.fixture(scope="module")
def by_cell(result):
    return {
        (row["policy"], row["budget_mb"]): row
        for row in result.rows()
    }


class TestSweepShape:
    def test_full_grid_present(self, result):
        budgets = [float(b) for b in result.config.budgets_mb()]
        assert len(budgets) == len(FRONTIER_BUDGET_FRACTIONS) >= 3
        assert len(FRONTIER_POLICIES) >= 3
        assert set(result.cells) == {
            (policy, budget)
            for policy in FRONTIER_POLICIES
            for budget in budgets
        }

    def test_rows_are_flat_scalars_sorted_by_budget_then_policy(self, result):
        rows = result.rows()
        keys = [(row["budget_mb"], row["policy"]) for row in rows]
        assert keys == sorted(keys)
        for row in rows:
            for key, value in row.items():
                assert isinstance(value, (str, int, float)), key

    def test_every_cell_replays_the_same_trace(self, result):
        events = {cell.events for cell in result.cells.values()}
        assert len(events) == 1      # policy must not change the workload

    def test_no_invariant_violations(self, result):
        assert result.violations() == []


class TestFrontierOrdering:
    def tight(self, result):
        return float(result.config.budgets_mb()[0])

    def ample(self, result):
        return float(result.config.budgets_mb()[-1])

    def test_hybrid_holds_horse_tier_at_tight_budget(self, result, by_cell):
        row = by_cell[("hybrid-10", self.tight(result))]
        assert row["p99_us"] < HORSE_TIER_US
        assert row["prewarm_loads"] > 0          # it got there by prewarming

    def test_fixed_windows_fall_to_restore_tier_at_tight_budget(
        self, result, by_cell
    ):
        for policy in ("fixed-120", "fixed-600"):
            row = by_cell[(policy, self.tight(result))]
            assert row["p99_us"] >= RESTORE_TIER_US
            assert row["evictions"] > 0          # pressure is why

    def test_fixed_600_catches_up_at_ample_budget(self, result, by_cell):
        row = by_cell[("fixed-600", self.ample(result))]
        assert row["p99_us"] < HORSE_TIER_US
        # The headline: same tail as hybrid, ~1.6x the memory.
        assert self.ample(result) / self.tight(result) >= 1.5

    def test_no_keep_alive_restores_at_every_budget(self, result, by_cell):
        for budget in result.config.budgets_mb():
            row = by_cell[("none", float(budget))]
            assert row["p50_us"] >= RESTORE_TIER_US
            assert row["horse_hits"] == 0

    def test_hybrid_memory_footprint_stays_under_fixed(self, result, by_cell):
        tight = self.tight(result)
        hybrid = by_cell[("hybrid-10", tight)]
        assert hybrid["peak_resident_mb"] <= tight


class TestRendering:
    def test_render_names_the_winner_at_tight_budget(self, result):
        text = render_prewarm_frontier(result)
        tight = float(result.config.budgets_mb()[0])
        assert f"HORSE-tier p99 at the tight budget ({tight:.0f} MB): hybrid-10" in text
        assert "invariant violations: 0" in text

    def test_render_deterministic(self, result):
        assert render_prewarm_frontier(result) == render_prewarm_frontier(
            run_prewarm_frontier(fast=True, seed=0)
        )


class TestRegistryIntegration:
    def test_registered_spec_runs_fast_mode(self):
        from repro.experiments.registry import ExperimentConfig, get

        spec = get("prewarm_frontier")
        run = spec.run(ExperimentConfig(fast=True, seed=0))
        rows = run.rows()
        assert {row["policy"] for row in rows} == set(FRONTIER_POLICIES)
        assert "HORSE-tier p99" in run.summary()

    def test_full_mode_config_scales_up(self):
        fast = frontier_config(fast=True, seed=0)
        full = frontier_config(fast=False, seed=0)
        assert full.functions > fast.functions
        assert full.duration_s > fast.duration_s
