"""Cost model: derived values and the paper's calibration anchors."""

import pytest

from repro.hypervisor.costs import (
    CostModel,
    FIRECRACKER_COSTS,
    XEN_COSTS,
    cost_model_for,
)
from repro.sim.units import microseconds, seconds


class TestDerivedCosts:
    def test_cold_start_is_about_1_5s(self):
        assert FIRECRACKER_COSTS.cold_start_ns == pytest.approx(
            seconds(1.5), rel=0.05
        )

    def test_restore_is_about_1300us(self):
        assert FIRECRACKER_COSTS.restore_ns == pytest.approx(
            microseconds(1300), rel=0.05
        )

    def test_vanilla_1vcpu_resume_is_about_1_1us(self):
        costs = FIRECRACKER_COSTS
        total = (
            costs.resume_parse_ns
            + costs.resume_lock_ns
            + costs.resume_sanity_ns
            + costs.resume_finalize_ns
            + costs.merge_cost_ns(1, 0)
            + costs.load_update_cost_ns(1)
        )
        assert total == pytest.approx(1100, rel=0.05)

    def test_horse_resume_is_under_200ns(self):
        costs = FIRECRACKER_COSTS
        total = (
            costs.fast_fixed_ns
            + costs.p2sm_merge_cost_ns(4)
            + costs.coalesced_update_ns
        )
        assert total < 200


class TestMergeCost:
    def test_merge_cost_grows_with_vcpus(self):
        costs = FIRECRACKER_COSTS
        assert costs.merge_cost_ns(36, 0) > costs.merge_cost_ns(1, 0)

    def test_merge_cost_charges_scans(self):
        costs = FIRECRACKER_COSTS
        assert costs.merge_cost_ns(1, 100) > costs.merge_cost_ns(1, 0)

    def test_merge_cost_rejects_zero_vcpus(self):
        with pytest.raises(ValueError):
            FIRECRACKER_COSTS.merge_cost_ns(0, 0)

    def test_p2sm_cost_flat_in_threads(self):
        costs = FIRECRACKER_COSTS
        assert costs.p2sm_merge_cost_ns(1) == costs.p2sm_merge_cost_ns(36)

    def test_p2sm_cost_rejects_negative(self):
        with pytest.raises(ValueError):
            FIRECRACKER_COSTS.p2sm_merge_cost_ns(-1)

    def test_load_update_cost_rejects_zero(self):
        with pytest.raises(ValueError):
            FIRECRACKER_COSTS.load_update_cost_ns(0)


class TestMemoryModel:
    def test_528kb_anchor_for_10_sandboxes_36_vcpus(self):
        """Paper §5.2: ~528 KB for the 10 paused uLL sandboxes."""
        total = 10 * FIRECRACKER_COSTS.horse_memory_bytes(36)
        assert total == pytest.approx(528_000, rel=0.02)

    def test_memory_rejects_negative_vcpus(self):
        with pytest.raises(ValueError):
            FIRECRACKER_COSTS.horse_memory_bytes(-1)


class TestPresets:
    def test_lookup_by_name(self):
        assert cost_model_for("firecracker") is FIRECRACKER_COSTS
        assert cost_model_for("XEN") is XEN_COSTS

    def test_unknown_platform_rejected(self):
        with pytest.raises(ValueError):
            cost_model_for("vmware")

    def test_xen_is_heavier_than_firecracker(self):
        assert XEN_COSTS.merge_first_vcpu_ns > FIRECRACKER_COSTS.merge_first_vcpu_ns

    def test_models_are_frozen(self):
        with pytest.raises(Exception):
            FIRECRACKER_COSTS.resume_parse_ns = 1.0
