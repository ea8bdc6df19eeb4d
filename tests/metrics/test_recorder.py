"""Breakdown recorders."""

import pytest

from repro.metrics.recorder import Breakdown, BreakdownRecorder


class TestBreakdown:
    def test_add_and_total(self):
        breakdown = Breakdown()
        breakdown.add("merge", 700)
        breakdown.add("load", 300)
        assert breakdown.total_ns == 1000

    def test_add_accumulates_same_phase(self):
        breakdown = Breakdown()
        breakdown.add("merge", 100)
        breakdown.add("merge", 50)
        assert breakdown.phases["merge"] == 150

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            Breakdown().add("x", -1)

    def test_share(self):
        breakdown = Breakdown()
        breakdown.add("a", 875)
        breakdown.add("b", 125)
        assert breakdown.share("a") == pytest.approx(0.875)
        assert breakdown.share("missing") == 0.0

    def test_empty_breakdown_shares_zero(self):
        assert Breakdown().share("x") == 0.0


class TestBreakdownRecorder:
    def make(self, pairs_list):
        recorder = BreakdownRecorder()
        for pairs in pairs_list:
            breakdown = Breakdown()
            for phase, ns in pairs:
                breakdown.add(phase, ns)
            recorder.record(breakdown)
        return recorder

    def test_mean_phase_ns(self):
        recorder = self.make([[("a", 10)], [("a", 30)]])
        assert recorder.mean_phase_ns() == {"a": 20.0}

    def test_mean_total(self):
        recorder = self.make([[("a", 10), ("b", 10)], [("a", 20), ("b", 0)]])
        assert recorder.mean_total_ns() == 20.0

    def test_mean_shares_sum_to_one(self):
        recorder = self.make([[("a", 70), ("b", 30)], [("a", 60), ("b", 40)]])
        shares = recorder.mean_shares()
        assert sum(shares.values()) == pytest.approx(1.0)
        assert shares["a"] == pytest.approx(0.65)

    def test_empty_recorder(self):
        recorder = BreakdownRecorder()
        assert recorder.mean_phase_ns() == {}
        assert recorder.mean_total_ns() == 0.0
        assert len(recorder) == 0
