"""Azure-like trace synthesis: structure and statistics."""

import hashlib
import json
import math
import random

import pytest

from repro.sim.units import SECOND
from repro.traces.azure import (
    AzureTraceConfig,
    burst_arrival_stream,
    synthesize_trace,
)


def make_trace(seed=0, **overrides):
    defaults = dict(functions=20, duration_s=30.0, mean_rate_per_function=1.0)
    defaults.update(overrides)
    return synthesize_trace(AzureTraceConfig(**defaults), random.Random(seed))


class TestConfig:
    def test_bad_function_count(self):
        with pytest.raises(ValueError):
            AzureTraceConfig(functions=0)

    def test_bad_duration(self):
        with pytest.raises(ValueError):
            AzureTraceConfig(duration_s=0)

    def test_bad_burst_fraction(self):
        with pytest.raises(ValueError):
            AzureTraceConfig(burst_on_fraction=0.0)

    def test_bad_burst_length(self):
        with pytest.raises(ValueError):
            AzureTraceConfig(burst_mean_length_s=0.0)


class TestBurstArrivalStream:
    """Edge cases the streaming replayer leans on."""

    def make_config(self, **overrides):
        defaults = dict(functions=1, duration_s=60.0)
        defaults.update(overrides)
        return AzureTraceConfig(**defaults)

    def test_negative_rate_rejected(self):
        stream = burst_arrival_stream(
            -1.0, 60.0, self.make_config(), random.Random(0)
        )
        with pytest.raises(ValueError):
            next(stream)

    def test_zero_rate_is_empty_and_consumes_no_draws(self):
        # A dead function must not perturb the rng it was handed —
        # the replayer derives neighbouring state from the same stream.
        rng = random.Random(0)
        before = rng.getstate()
        assert list(burst_arrival_stream(0.0, 60.0, self.make_config(), rng)) == []
        assert rng.getstate() == before

    def test_always_on_fraction_degenerates_to_poisson(self):
        # burst_on_fraction == 1 used to divide by a zero mean-off
        # period; now it runs one uninterrupted Poisson process.
        config = self.make_config(burst_on_fraction=1.0)
        arrivals = list(
            burst_arrival_stream(10.0, 60.0, config, random.Random(1))
        )
        assert len(arrivals) == pytest.approx(600, rel=0.3)
        assert arrivals == sorted(arrivals)

    def test_stream_matches_legacy_materialized_order(self):
        # Same rng, same draw sequence: streaming is a pure refactor of
        # the old list builder.
        config = self.make_config()
        streamed = list(
            burst_arrival_stream(5.0, 60.0, config, random.Random(2))
        )
        assert streamed == sorted(streamed)
        assert streamed == list(
            burst_arrival_stream(5.0, 60.0, config, random.Random(2))
        )

    def test_window_respected(self):
        config = self.make_config()
        horizon = round(60.0 * SECOND)
        for t in burst_arrival_stream(20.0, 60.0, config, random.Random(3)):
            assert 0 <= t <= horizon

    def test_exhaustion_mid_window_is_clean(self):
        # A slow stream may produce nothing at all; the generator must
        # terminate (not hang) and be safely re-drainable.
        config = self.make_config(duration_s=0.001)
        stream = burst_arrival_stream(0.01, 0.001, config, random.Random(4))
        assert list(stream) == []
        assert list(stream) == []         # exhausted generators stay empty


class TestInlineExponentialDraw:
    """``burst_arrival_stream`` draws each exponential gap inline as
    ``-log(1.0 - random()) / rate``, so a generator needs only
    ``random()``.  That is the expression ``random.Random.expovariate``
    evaluates, so traces synthesized from a ``random.Random`` keep their
    values; these tests pin both facts on the running interpreter."""

    @pytest.mark.parametrize("rate", [1.0, 2.5, 1.0 / 7.0, 1e-3])
    def test_expovariate_is_the_inline_expression(self, rate):
        library, inline = random.Random(2024), random.Random(2024)
        for _ in range(1000):
            expected = library.expovariate(rate)
            assert -math.log(1.0 - inline.random()) / rate == expected
        assert inline.getstate() == library.getstate()

    @pytest.mark.parametrize(
        "seed, overrides, events, digest",
        [
            (0, {}, 576,
             "bcc410b5f78b41e6e43a858c0f6af8dabc3da5c65021749f1b5d0fee243e1821"),
            (7, {"functions": 12, "duration_s": 20.0, "burst_on_fraction": 1.0},
             240,
             "0d048858aa6fa1c586d2520b4f66ab22180d3932e0492c1f450bc7ce980bb236"),
            (12345,
             {"functions": 30, "duration_s": 60.0, "mean_rate_per_function": 3.0},
             4641,
             "db2dbbba89a99cb1368f1258f4e4c1f168f1fb73f935f23b8a15819ffbcd11b8"),
        ],
    )
    def test_synthesized_trace_pinned(self, seed, overrides, events, digest):
        # Digests of the invocation lists as synthesized with
        # rng.expovariate() calls; the inline draw must reproduce them.
        trace = synthesize_trace(AzureTraceConfig(**overrides), random.Random(seed))
        text = json.dumps(trace.invocations, sort_keys=True)
        assert sum(map(len, trace.invocations.values())) == events
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestStructure:
    def test_function_count(self):
        trace = make_trace()
        assert len(trace.function_names()) == 20

    def test_timestamps_within_duration(self):
        trace = make_trace()
        horizon = 30 * SECOND
        for timestamps in trace.invocations.values():
            assert all(0 <= t < horizon + SECOND for t in timestamps)

    def test_timestamps_sorted(self):
        trace = make_trace()
        for timestamps in trace.invocations.values():
            assert timestamps == sorted(timestamps)

    def test_merged_timestamps_sorted_and_complete(self):
        trace = make_trace()
        merged = trace.merged_timestamps()
        assert merged == sorted(merged)
        assert len(merged) == sum(map(len, trace.invocations.values()))

    def test_deterministic_given_seed(self):
        assert make_trace(seed=5).invocations == make_trace(seed=5).invocations

    def test_different_seeds_differ(self):
        assert make_trace(seed=1).invocations != make_trace(seed=2).invocations



class TestStatistics:
    def test_total_rate_near_configured_mean(self):
        trace = make_trace(seed=3, functions=40, duration_s=60.0)
        total_rate = len(trace.merged_timestamps()) / 60.0
        # 40 functions at ~1/s mean
        assert total_rate == pytest.approx(40.0, rel=0.5)

    def test_rates_are_heavy_tailed(self):
        """A few functions should dominate: top-10% of functions carry
        far more than 10% of invocations (Pareto-tailed rates)."""
        trace = make_trace(seed=4, functions=50, duration_s=120.0)
        counts = sorted(
            (len(ts) for ts in trace.invocations.values()), reverse=True
        )
        top5 = sum(counts[:5])
        total = sum(counts)
        assert total > 0
        assert top5 / total > 0.25

    def test_rate_per_second_helper(self):
        trace = make_trace(seed=0)
        name = trace.function_names()[0]
        expected = len(trace.invocations[name]) / 30.0
        assert trace.rate_per_second(name) == pytest.approx(expected)

    def test_bursty_interarrivals(self):
        """The MMPP construction should produce inter-arrival CV > 1
        (the Azure dataset's signature burstiness)."""
        trace = make_trace(seed=6, functions=1, mean_rate_per_function=20.0,
                           duration_s=120.0)
        timestamps = trace.invocations[trace.function_names()[0]]
        assert len(timestamps) > 100
        gaps = [b - a for a, b in zip(timestamps, timestamps[1:])]
        mean_gap = sum(gaps) / len(gaps)
        var = sum((g - mean_gap) ** 2 for g in gaps) / (len(gaps) - 1)
        cv = var ** 0.5 / mean_gap
        assert cv > 1.0
