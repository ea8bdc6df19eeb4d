"""Workload base helpers and the ull_workloads factory."""

import random

import pytest

from repro.workloads import ull_workloads
from repro.workloads.base import WorkloadCategory, truncated_normal_ns


class TestCategories:
    def test_ull_categories(self):
        assert WorkloadCategory.CATEGORY_1.is_ull
        assert WorkloadCategory.CATEGORY_2.is_ull
        assert WorkloadCategory.CATEGORY_3.is_ull
        assert not WorkloadCategory.LONG_RUNNING.is_ull
        assert not WorkloadCategory.BACKGROUND.is_ull

    def test_flag_is_a_plain_member_attribute(self):
        # Set once at import, not a property computed on every read.
        for category in WorkloadCategory:
            assert type(vars(category)["is_ull"]) is bool


class TestTruncatedNormal:
    def test_floor_enforced(self):
        rng = random.Random(0)
        samples = [
            truncated_normal_ns(rng, mean_ns=100, rel_std=3.0, floor_ns=50)
            for _ in range(500)
        ]
        assert min(samples) >= 50

    def test_returns_int(self):
        value = truncated_normal_ns(random.Random(0), 100.0, 0.1, 10.0)
        assert isinstance(value, int)

    def test_mean_approximately_respected(self):
        rng = random.Random(1)
        samples = [
            truncated_normal_ns(rng, mean_ns=10_000, rel_std=0.05, floor_ns=1)
            for _ in range(3000)
        ]
        assert sum(samples) / len(samples) == pytest.approx(10_000, rel=0.02)


class TestUllWorkloadsFactory:
    def test_three_categories_in_order(self):
        workloads = ull_workloads()
        assert [w.category for w in workloads] == [
            WorkloadCategory.CATEGORY_1,
            WorkloadCategory.CATEGORY_2,
            WorkloadCategory.CATEGORY_3,
        ]

    def test_all_ull(self):
        assert all(w.is_ull for w in ull_workloads())

    def test_names_unique(self):
        names = [w.name for w in ull_workloads()]
        assert len(set(names)) == 3

    def test_fresh_instances_each_call(self):
        assert ull_workloads()[0] is not ull_workloads()[0]

    def test_mean_durations_match_table1(self):
        """Table 1's execution rows: ~17 us, ~1.5 us, ~0.7 us."""
        rng = random.Random(2)
        expected = (17_000, 1_500, 700)
        for workload, target in zip(ull_workloads(), expected):
            samples = [workload.sample_duration_ns(rng) for _ in range(2000)]
            assert sum(samples) / len(samples) == pytest.approx(target, rel=0.06)
