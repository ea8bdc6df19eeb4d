"""Degradation ladder and the load-shedding admission controller."""

import pytest

from repro.faas.cluster import plan_start
from repro.faas.invocation import StartType
from repro.resilience.degradation import (
    DEGRADATION_LADDER,
    AdmissionConfig,
    AdmissionController,
    DegradationStats,
    degrade,
    ladder_level,
)


class TestLadder:
    def test_order_hot_to_cold(self):
        assert DEGRADATION_LADDER == (
            StartType.HORSE, StartType.WARM, StartType.COLD
        )

    def test_degrade_steps(self):
        assert degrade(StartType.HORSE) is StartType.WARM
        assert degrade(StartType.WARM) is StartType.COLD
        assert degrade(StartType.COLD) is StartType.COLD

    def test_restore_treated_as_bottom(self):
        # RESTORE is off-ladder (snapshot templates cannot be assumed on
        # a degraded node): it maps to the bottom rung.
        assert ladder_level(StartType.RESTORE) == 2
        assert degrade(StartType.RESTORE) is StartType.COLD

    def test_plan_start_miss(self):
        assert plan_start(0, StartType.HORSE) == (
            StartType.COLD, "horse->cold"
        )
        assert plan_start(0, StartType.WARM) == (
            StartType.COLD, "warm->cold"
        )

    def test_plan_start_hit(self):
        assert plan_start(2, StartType.HORSE) == (StartType.HORSE, None)
        assert plan_start(0, StartType.COLD) == (StartType.COLD, None)


class TestAdmission:
    def test_validation(self):
        with pytest.raises(ValueError):
            AdmissionConfig(capacity=0)
        with pytest.raises(ValueError):
            AdmissionConfig(capacity=4, reserved_slots=4)

    def test_low_priority_hits_watermark_first(self):
        controller = AdmissionController(
            AdmissionConfig(capacity=10, reserved_slots=2, reserved_priority=1)
        )
        assert controller.limit_for(0) == 8
        assert controller.limit_for(1) == 10
        assert not controller.admit(0, in_flight=8)
        assert controller.admit(1, in_flight=8)

    def test_full_capacity_sheds_everyone(self):
        controller = AdmissionController(
            AdmissionConfig(capacity=10, reserved_slots=2)
        )
        assert not controller.admit(5, in_flight=10)

    def test_shed_accounting_by_priority(self):
        controller = AdmissionController(
            AdmissionConfig(capacity=4, reserved_slots=2, reserved_priority=1)
        )
        controller.admit(0, in_flight=0)
        controller.admit(0, in_flight=3)
        controller.admit(1, in_flight=3)
        assert controller.admitted == 2
        assert controller.shed == 1
        assert controller.shed_by_priority == {0: 1}


class TestStats:
    def test_record_keyed_by_transition(self):
        stats = DegradationStats()
        stats.record(StartType.HORSE, StartType.WARM)
        stats.record(StartType.HORSE, StartType.WARM)
        stats.record(StartType.WARM, StartType.COLD)
        assert stats.transitions == {"horse->warm": 2, "warm->cold": 1}
        assert stats.total() == 3

    def test_self_transition_ignored(self):
        stats = DegradationStats()
        stats.record(StartType.COLD, StartType.COLD)
        assert stats.total() == 0
