"""Energy model and the skip-vs-coalesce DVFS consequence."""

import pytest

from repro.experiments.ablations_energy import ablate_skip_vs_coalesce
from repro.hypervisor.dvfs import DvfsGovernor, FrequencyRange, GovernorMode
from repro.hypervisor.energy import CorePowerModel, frequency_error_ratio


class TestPowerModel:
    def test_power_at_max_is_peak(self):
        model = CorePowerModel(peak_watts=6.0, static_watts=1.8, max_khz=1000)
        assert model.power_watts(1000) == pytest.approx(6.0)

    def test_power_at_zero_is_static(self):
        model = CorePowerModel(peak_watts=6.0, static_watts=1.8, max_khz=1000)
        assert model.power_watts(0) == pytest.approx(1.8)

    def test_power_monotone_in_frequency(self):
        model = CorePowerModel()
        values = [model.power_watts(khz) for khz in (0, 1_000_000, 2_000_000, 3_500_000)]
        assert values == sorted(values)

    def test_cubic_scaling(self):
        model = CorePowerModel(peak_watts=10.0, static_watts=2.0, max_khz=1000)
        # dynamic at half frequency = (1/2)^3 of dynamic peak
        assert model.power_watts(500) == pytest.approx(2.0 + 8.0 / 8.0)

    def test_overclamp(self):
        model = CorePowerModel(max_khz=1000)
        assert model.power_watts(5000) == model.power_watts(1000)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            CorePowerModel(peak_watts=0.0)
        with pytest.raises(ValueError):
            CorePowerModel(peak_watts=1.0, static_watts=1.0)

    def test_negative_inputs_rejected(self):
        model = CorePowerModel()
        with pytest.raises(ValueError):
            model.power_watts(-1)


class TestFrequencyError:
    def test_exact_load_zero_error(self):
        governor = DvfsGovernor(mode=GovernorMode.ONDEMAND)
        assert frequency_error_ratio(governor, 500.0, 500.0) == 0.0

    def test_stale_load_positive_error(self):
        governor = DvfsGovernor(
            mode=GovernorMode.ONDEMAND,
            frequency=FrequencyRange(800_000, 3_500_000),
        )
        assert frequency_error_ratio(governor, 800.0, 100.0) > 0.0

    def test_performance_governor_immune_to_staleness(self):
        governor = DvfsGovernor(mode=GovernorMode.PERFORMANCE)
        assert frequency_error_ratio(governor, 800.0, 0.0) == 0.0


class TestSkipVsCoalesceAblation:
    @pytest.fixture(scope="class")
    def points(self):
        return ablate_skip_vs_coalesce()

    def test_coalesced_error_always_zero(self, points):
        """The coalescing guarantee: DVFS sees exactly the vanilla load."""
        for point in points:
            assert point.coalesced_freq_error == pytest.approx(0.0, abs=1e-12)
            assert point.coalesced_load == pytest.approx(point.true_load)

    def test_skip_error_grows_with_vcpus(self, points):
        errors = [p.skipped_freq_error for p in points]
        assert errors == sorted(errors)
        assert errors[-1] > 0.3  # badly underclocked at 36 vCPUs

    def test_skip_power_deficit_grows(self, points):
        deficits = [p.skipped_power_deficit_watts for p in points]
        assert deficits == sorted(deficits)
        assert deficits[-1] > 0.5
