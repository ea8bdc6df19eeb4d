"""Fault injection: every kind is deterministic, replayable, and caught.

The core claim a fault harness must prove about *itself* is
non-vacuity: enabling an injector has to produce reported violations,
otherwise a green "0 violations" run proves nothing.  One test per
kind runs the checked Figure-3 cycles with exactly that fault planned
and asserts (a) it was injected and (b) at least one violation was
reported with span context.
"""

import pytest

from repro.check import (
    FAULT_KINDS,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    check_figure3,
)

#: Small fast sweep shared by the per-kind tests.
FAST = dict(vcpu_counts=(1, 4), repetitions=1)


class TestPlan:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec("meteor_strike")

    def test_negative_cycle_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            FaultSpec("clock_skew", cycle=-1)

    def test_strike_cycle_is_deterministic_in_the_seed(self):
        plan = FaultPlan(seed=5, specs=(FaultSpec("stale_arrayb"),))
        first = FaultInjector(plan)._armed[0].strike_cycle
        second = FaultInjector(plan)._armed[0].strike_cycle
        assert first == second
        pinned = FaultInjector(
            FaultPlan(seed=5, specs=(FaultSpec("stale_arrayb", cycle=2),))
        )
        assert pinned._armed[0].strike_cycle == 2


class TestEveryKindIsCaught:
    @pytest.mark.parametrize("kind", FAULT_KINDS)
    def test_injected_fault_produces_reported_violations(self, kind):
        report = check_figure3(
            fault_plan=FaultPlan(seed=11, specs=(FaultSpec(kind),)), **FAST
        )
        assert report.unfired == [], f"{kind} never found an eligible cycle"
        assert [f.kind for f in report.injected] == [kind]
        assert len(report.violations) >= 1, f"{kind} corrupted state undetected"
        # Violations carry the enclosing check.cycle span context when
        # an observability bundle is active; at minimum they name the
        # cycle that was corrupted.
        assert all(v.context for v in report.violations)

    def test_same_plan_replays_identically(self):
        plan = FaultPlan(seed=3, specs=(FaultSpec("stale_posa"),))
        first = check_figure3(fault_plan=plan, **FAST)
        second = check_figure3(fault_plan=plan, **FAST)
        assert [(f.kind, f.cycle) for f in first.injected] == [
            (f.kind, f.cycle) for f in second.injected
        ]
        assert [(v.checker, v.context) for v in first.violations] == [
            (v.checker, v.context) for v in second.violations
        ]

    def test_clean_plan_means_clean_report(self):
        report = check_figure3(**FAST)
        assert report.ok
        assert report.violations == []
        assert report.injected == []


class TestEligibilityAccounting:
    def test_fault_with_no_eligible_cycle_is_reported_unfired(self):
        # drop_coalesced can never fire when coalescing is off everywhere.
        from repro.core.hot_resume import HorseConfig

        report = check_figure3(
            setups={"ppsm": HorseConfig.ppsm_only()},
            fault_plan=FaultPlan(specs=(FaultSpec("drop_coalesced"),)),
            **FAST,
        )
        assert report.unfired == ["drop_coalesced"]
        assert not report.ok
