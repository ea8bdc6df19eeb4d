"""Trigger transport models."""

import random

import pytest

from repro.faas.transport import (
    ALL_TRANSPORTS,
    LOCAL,
    NANO_FABRIC,
    TCP,
    TransportKind,
    TransportModel,
)


class TestModels:
    def test_local_is_free(self):
        assert LOCAL.sample_ns(random.Random(0)) == 0

    def test_latency_ordering(self):
        rng = random.Random(1)
        samples = {
            model.kind: sum(model.sample_ns(rng) for _ in range(200)) / 200
            for model in ALL_TRANSPORTS
        }
        assert (
            samples[TransportKind.LOCAL]
            < samples[TransportKind.NANO_FABRIC]
            < samples[TransportKind.KERNEL_BYPASS]
            < samples[TransportKind.TCP]
        )

    def test_samples_never_negative(self):
        model = TransportModel(TransportKind.TCP, base_ns=100, jitter_rel=5.0)
        rng = random.Random(2)
        assert all(model.sample_ns(rng) >= 0 for _ in range(500))

    def test_mean_near_base(self):
        rng = random.Random(3)
        samples = [TCP.sample_ns(rng) for _ in range(2000)]
        assert sum(samples) / len(samples) == pytest.approx(
            TCP.base_ns, rel=0.05
        )

    def test_negative_base_rejected(self):
        with pytest.raises(ValueError):
            TransportModel(TransportKind.TCP, base_ns=-1)


class TestSensitivityStudy:
    @pytest.fixture(scope="class")
    def study(self):
        from repro.experiments.transport_sensitivity import (
            run_transport_sensitivity,
        )

        return run_transport_sensitivity(invocations=30, seed=0)

    def test_benefit_fades_with_slower_transport(self, study):
        """The paper's §2 premise, quantified: HORSE's advantage only
        exists when the trigger path is ns/us-scale."""
        order = ("local", "nano-fabric", "kernel-bypass", "tcp")
        benefits = [study.horse_benefit_pct(t) for t in order]
        assert benefits == sorted(benefits, reverse=True)
        assert benefits[0] > 30.0   # decisive on local triggers
        assert benefits[-1] < 1.0   # irrelevant behind TCP

    def test_overhead_grows_with_transport(self, study):
        from repro.faas.invocation import StartType

        order = ("local", "nano-fabric", "kernel-bypass", "tcp")
        for scenario in (StartType.WARM, StartType.HORSE):
            overheads = [
                study.cell(t, scenario).mean_overhead_pct for t in order
            ]
            assert overheads == sorted(overheads)
