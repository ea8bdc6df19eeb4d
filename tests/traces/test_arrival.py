"""Arrival processes."""

import random

import pytest

from repro.sim.units import SECOND, milliseconds
from repro.traces.arrival import PoissonArrivals


class TestPoisson:
    def test_rate_approximately_respected(self):
        process = PoissonArrivals(rate_per_second=100.0, rng=random.Random(0))
        arrivals = list(process.arrivals(0, 10 * SECOND))
        assert len(arrivals) == pytest.approx(1000, rel=0.15)

    def test_strictly_increasing(self):
        process = PoissonArrivals(50.0, random.Random(1))
        arrivals = list(process.arrivals(0, SECOND))
        assert all(a < b for a, b in zip(arrivals, arrivals[1:]))

    def test_window_respected(self):
        process = PoissonArrivals(1000.0, random.Random(2))
        arrivals = list(process.arrivals(milliseconds(100), milliseconds(200)))
        assert all(milliseconds(100) <= t < milliseconds(200) for t in arrivals)

    def test_deterministic_given_seed(self):
        a = list(PoissonArrivals(10.0, random.Random(7)).arrivals(0, SECOND))
        b = list(PoissonArrivals(10.0, random.Random(7)).arrivals(0, SECOND))
        assert a == b

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            PoissonArrivals(-1.0, random.Random(0))

    def test_zero_rate_yields_empty_stream(self):
        # A dead function (Azure's long idle tail) is a valid process
        # that simply never fires — not a configuration error.
        process = PoissonArrivals(0.0, random.Random(0))
        assert list(process.arrivals(0, 10**12)) == []

