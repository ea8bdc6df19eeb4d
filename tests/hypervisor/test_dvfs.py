"""DVFS governor behavior."""

import pytest

from repro.hypervisor.dvfs import DvfsGovernor, FrequencyRange, GovernorMode


class TestFrequencyRange:
    def test_valid_range(self):
        fr = FrequencyRange(800_000, 2_400_000)
        assert fr.min_khz == 800_000

    def test_inverted_range_rejected(self):
        with pytest.raises(ValueError):
            FrequencyRange(2_000_000, 1_000_000)

    def test_nonpositive_min_rejected(self):
        with pytest.raises(ValueError):
            FrequencyRange(0, 100)

    def test_clamp(self):
        fr = FrequencyRange(1000, 2000)
        assert fr.clamp(500) == 1000
        assert fr.clamp(3000) == 2000
        assert fr.clamp(1500) == 1500


class TestGovernor:
    def test_performance_always_max(self):
        governor = DvfsGovernor(mode=GovernorMode.PERFORMANCE)
        assert governor.target_khz(0.0) == governor.frequency.max_khz
        assert governor.target_khz(1e9) == governor.frequency.max_khz

    def test_powersave_always_min(self):
        governor = DvfsGovernor(mode=GovernorMode.POWERSAVE)
        assert governor.target_khz(1e9) == governor.frequency.min_khz

    def test_ondemand_zero_load_min(self):
        governor = DvfsGovernor(mode=GovernorMode.ONDEMAND)
        assert governor.target_khz(0.0) == governor.frequency.min_khz

    def test_ondemand_full_load_max(self):
        governor = DvfsGovernor(mode=GovernorMode.ONDEMAND, capacity=1024.0)
        assert governor.target_khz(1024.0) == governor.frequency.max_khz

    def test_ondemand_half_load_midpoint(self):
        governor = DvfsGovernor(
            mode=GovernorMode.ONDEMAND,
            frequency=FrequencyRange(1000, 3000),
            capacity=100.0,
        )
        assert governor.target_khz(50.0) == 2000

    def test_ondemand_monotone_in_load(self):
        governor = DvfsGovernor(mode=GovernorMode.ONDEMAND)
        freqs = [governor.target_khz(load) for load in (0, 200, 400, 800, 1024)]
        assert freqs == sorted(freqs)

    def test_overload_clamped(self):
        governor = DvfsGovernor(mode=GovernorMode.ONDEMAND, capacity=10.0)
        assert governor.target_khz(1e6) == governor.frequency.max_khz

    def test_nonpositive_capacity_rejected(self):
        with pytest.raises(ValueError):
            DvfsGovernor(capacity=0.0)
