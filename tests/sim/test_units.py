"""Unit conversions: exactness, rounding, formatting."""

import pytest

from repro.sim.units import (
    MICROSECOND,
    MILLISECOND,
    SECOND,
    format_duration,
    microseconds,
    milliseconds,
    nanoseconds,
    seconds,
    to_microseconds,
)


class TestConstants:
    def test_microsecond_is_1000_ns(self):
        assert MICROSECOND == 1_000

    def test_millisecond_is_1e6_ns(self):
        assert MILLISECOND == 1_000_000

    def test_second_is_1e9_ns(self):
        assert SECOND == 1_000_000_000


class TestConversions:
    def test_nanoseconds_identity(self):
        assert nanoseconds(150) == 150

    def test_nanoseconds_rounds(self):
        assert nanoseconds(149.6) == 150

    def test_microseconds(self):
        assert microseconds(1.1) == 1100

    def test_milliseconds(self):
        assert milliseconds(1.3) == 1_300_000

    def test_seconds(self):
        assert seconds(1.5) == 1_500_000_000

    def test_all_return_int(self):
        for value in (microseconds(0.5), milliseconds(0.25), seconds(0.1)):
            assert isinstance(value, int)

    def test_roundtrip_microseconds(self):
        assert to_microseconds(microseconds(17)) == pytest.approx(17.0)


class TestFormatDuration:
    def test_nanoseconds(self):
        assert format_duration(150) == "150 ns"

    def test_microseconds(self):
        assert format_duration(1100) == "1.10 us"

    def test_milliseconds(self):
        assert format_duration(1_300_000) == "1.30 ms"

    def test_seconds(self):
        assert format_duration(1_500_000_000) == "1.50 s"

    def test_negative(self):
        assert format_duration(-1100) == "-1.10 us"

    def test_zero(self):
        assert format_duration(0) == "0 ns"
