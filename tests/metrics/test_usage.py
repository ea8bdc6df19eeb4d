"""Usage sampling and the CPU work tracker."""

import pytest

from repro.metrics.usage import CpuWorkTracker, UsageSampler
from repro.sim.engine import Engine
from repro.sim.units import milliseconds


class TestUsageSampler:
    def test_samples_at_period(self):
        engine = Engine()
        sampler = UsageSampler(engine, milliseconds(500))
        sampler.add_gauge("x", lambda: 1.0)
        sampler.start()
        engine.run(until=milliseconds(2600))
        assert len(sampler.samples) == 5
        assert [s.time_ns for s in sampler.samples] == [
            milliseconds(500 * i) for i in range(1, 6)
        ]

    def test_gauge_values_recorded(self):
        engine = Engine()
        counter = {"v": 0.0}
        sampler = UsageSampler(engine, milliseconds(100))
        sampler.add_gauge("c", lambda: counter["v"])
        sampler.start()
        engine.schedule_at(milliseconds(150), lambda: counter.update(v=5.0))
        engine.run(until=milliseconds(250))
        assert sampler.series("c") == [0.0, 5.0]

    def test_stop_halts_sampling(self):
        engine = Engine()
        sampler = UsageSampler(engine, milliseconds(100))
        sampler.add_gauge("x", lambda: 1.0)
        sampler.start()
        engine.run(until=milliseconds(250))
        sampler.stop()
        engine.run(until=milliseconds(1000))
        assert len(sampler.samples) == 2

    def test_duplicate_gauge_rejected(self):
        sampler = UsageSampler(Engine(), 100)
        sampler.add_gauge("x", lambda: 0.0)
        with pytest.raises(ValueError):
            sampler.add_gauge("x", lambda: 0.0)

    def test_bad_period_rejected(self):
        with pytest.raises(ValueError):
            UsageSampler(Engine(), 0)

    def test_peak_and_mean(self):
        engine = Engine()
        values = iter([1.0, 5.0, 3.0])
        sampler = UsageSampler(engine, 100)
        sampler.add_gauge("x", lambda: next(values))
        sampler.start()
        engine.run(until=300)
        assert sampler.peak("x") == 5.0
        assert sampler.mean("x") == pytest.approx(3.0)

    def test_peak_without_samples_raises(self):
        sampler = UsageSampler(Engine(), 100)
        with pytest.raises(KeyError):
            sampler.peak("x")

    def test_double_start_is_noop(self):
        engine = Engine()
        sampler = UsageSampler(engine, 100)
        sampler.add_gauge("x", lambda: 1.0)
        sampler.start()
        sampler.start()
        engine.run(until=100)
        assert len(sampler.samples) == 1


class TestCpuWorkTracker:
    def test_charge_accumulates(self):
        tracker = CpuWorkTracker()
        tracker.charge("pause", 100.0)
        tracker.charge("pause", 50.0)
        assert tracker.total("pause") == 150.0

    def test_phases_isolated(self):
        tracker = CpuWorkTracker()
        tracker.charge("a", 1.0)
        tracker.charge("b", 2.0)
        assert tracker.total("a") == 1.0
        assert tracker.total("b") == 2.0

    def test_negative_work_rejected(self):
        with pytest.raises(ValueError):
            CpuWorkTracker().charge("x", -1.0)

    def test_unknown_phase_zero(self):
        assert CpuWorkTracker().total("ghost") == 0.0

    def test_gauge_reads_live_counter(self):
        tracker = CpuWorkTracker()
        gauge = tracker.gauge("work")
        assert gauge() == 0.0
        tracker.charge("work", 7.0)
        assert gauge() == 7.0
