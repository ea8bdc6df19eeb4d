"""Ablation drivers: sanity and directionality of each study."""

import pytest

from repro.experiments.ablations import (
    ablate_mechanism_split,
    ablate_platform,
    ablate_precompute_churn,
    ablate_ull_runqueue_count,
)
from repro.hypervisor.pause_resume import STEP_LOAD, STEP_MERGE


class TestUllRunqueueCount:
    @pytest.fixture(scope="class")
    def points(self):
        return ablate_ull_runqueue_count(queue_counts=(1, 2, 4), sandboxes=8)

    def test_balancing_keeps_imbalance_at_most_one(self, points):
        assert all(p.max_assignment_imbalance <= 1 for p in points)

    def test_resume_flat_across_queue_counts(self, points):
        values = {p.mean_resume_ns for p in points}
        assert max(values) - min(values) < 5.0

    def test_more_queues_less_refresh_per_resume(self, points):
        """Fewer sandboxes tied per queue -> fewer precompute refreshes
        when one of them resumes."""
        per_resume = [p.refresh_entries_per_resume for p in points]
        assert per_resume == sorted(per_resume, reverse=True)

    def test_refresh_entries_per_resume_pinned(self):
        """The modelled refresh cost is a full rebuild's entry count,
        whatever the host-side refresh does to produce the same state."""
        points = ablate_ull_runqueue_count(queue_counts=(1, 4))
        assert [p.refresh_entries_per_resume for p in points] == [407.5, 33.5]


class TestPrecomputeChurn:
    @pytest.fixture(scope="class")
    def points(self):
        return ablate_precompute_churn(churn_levels=(0, 10, 50))

    def test_refresh_work_scales_with_churn(self, points):
        entries = [p.refresh_entries for p in points]
        assert entries == sorted(entries)
        assert entries[0] == 0 and entries[-1] > 0

    def test_refresh_operations_count_tied_sandboxes(self, points):
        churn_10 = points[1]
        assert churn_10.refresh_operations == (
            churn_10.churn_events * churn_10.tied_sandboxes
        )

    def test_entries_per_event_stable(self, points):
        busy = [p for p in points if p.churn_events]
        ratios = [p.entries_per_event for p in busy]
        assert max(ratios) / min(ratios) < 1.5

    def test_refresh_work_pinned(self):
        """Exact (operations, entries) per churn level: five tied
        sandboxes of four vCPUs on an otherwise empty queue, each refresh
        touching the sentinel's arrayB entry plus 4 chain nodes (one more
        arrayB entry while the visitor is queued)."""
        points = ablate_precompute_churn(churn_levels=(10, 50, 200))
        assert [(p.refresh_operations, p.refresh_entries) for p in points] == [
            (100, 550),
            (500, 2750),
            (2000, 11000),
        ]


class TestPlatformAblation:
    @pytest.fixture(scope="class")
    def comparisons(self):
        return ablate_platform(vcpus=16, repetitions=3)

    def test_both_platforms_present(self, comparisons):
        assert {c.platform for c in comparisons} == {"firecracker", "xen"}

    def test_horse_wins_on_both_schedulers(self, comparisons):
        for comparison in comparisons:
            assert comparison.speedup > 5.0, comparison

    def test_xen_vanilla_slower(self, comparisons):
        by_name = {c.platform: c for c in comparisons}
        assert by_name["xen"].vanil_ns > by_name["firecracker"].vanil_ns


class TestMechanismSplit:
    @pytest.fixture(scope="class")
    def split(self):
        return ablate_mechanism_split(vcpus=36)

    def test_merge_is_the_largest_saving(self, split):
        assert split.share_of_saving(STEP_MERGE) > 0.5

    def test_load_update_is_second(self, split):
        shares = {
            step: split.share_of_saving(step) for step in split.steps
        }
        ordered = sorted(shares, key=shares.get, reverse=True)
        assert ordered[0] == STEP_MERGE
        assert ordered[1] == STEP_LOAD

    def test_every_step_saves_or_breaks_even(self, split):
        for step in split.steps:
            assert split.saving_ns(step) >= 0.0, step

    def test_total_saving_matches_figure3_gap(self, split):
        """Sum of per-step savings ~= vanil(36) - horse(36)."""
        assert split.total_saving_ns() == pytest.approx(1667 - 132, rel=0.05)
