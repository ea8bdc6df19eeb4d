"""The retry policy: capped, jittered exponential backoff."""

import random

import pytest

from repro.resilience.retry import (
    BACKOFF_MULTIPLIER,
    BASE_BACKOFF_NS,
    MAX_BACKOFF_NS,
    backoff_ns,
)


class TestRetryPolicy:
    def test_backoff_within_jitter_band(self):
        rng = random.Random(0)
        for attempt in (1, 2, 3):
            ceiling = BASE_BACKOFF_NS * BACKOFF_MULTIPLIER ** (attempt - 1)
            for _ in range(50):
                delay = backoff_ns(attempt, rng)
                assert ceiling / 2 <= delay <= ceiling

    def test_backoff_capped(self):
        rng = random.Random(1)
        assert all(backoff_ns(20, rng) <= MAX_BACKOFF_NS for _ in range(50))
        assert max(backoff_ns(20, rng) for _ in range(50)) > MAX_BACKOFF_NS / 2

    def test_backoff_never_zero(self):
        # Full jitter spans only the upper half of the ceiling, so a
        # retry never lands on the instant of the failure.
        rng = random.Random(2)
        assert min(backoff_ns(1, rng) for _ in range(200)) >= BASE_BACKOFF_NS / 2

    def test_backoff_deterministic_per_seed(self):
        a = [backoff_ns(i, random.Random(7)) for i in range(1, 5)]
        b = [backoff_ns(i, random.Random(7)) for i in range(1, 5)]
        assert a == b

    def test_attempt_must_be_positive(self):
        with pytest.raises(ValueError):
            backoff_ns(0, random.Random(0))
