"""Keep-alive policies (legacy; superseded by repro.faas.prewarm)."""

import pytest

from repro.faas.keepalive import FixedKeepAlive, HybridKeepAlive
from repro.faas.prewarm import HybridHistogram
from repro.sim.units import seconds


class TestFixed:
    def test_constant_window(self):
        policy = FixedKeepAlive(window_ns=seconds(300))
        assert policy.keep_alive_ns("a") == seconds(300)
        assert policy.keep_alive_ns("b") == seconds(300)

    def test_default_is_10_minutes(self):
        assert FixedKeepAlive().keep_alive_ns("x") == seconds(600)

    def test_negative_window_rejected(self):
        with pytest.raises(ValueError):
            FixedKeepAlive(window_ns=-1)

    def test_observe_is_noop(self):
        policy = FixedKeepAlive(seconds(10))
        policy.observe_idle_gap("f", seconds(99999))
        assert policy.keep_alive_ns("f") == seconds(10)


class TestHybridKeepAlive:
    """The migration target: KeepAlivePolicy facade over HybridHistogram."""

    def test_no_deprecation_warning(self, recwarn):
        HybridKeepAlive()
        assert not [w for w in recwarn if w.category is DeprecationWarning]

    def test_falls_back_before_enough_observations(self):
        policy = HybridKeepAlive(
            HybridHistogram(min_observations=4, default_keep_ns=seconds(30))
        )
        policy.observe_idle_gap("f", seconds(1))
        assert policy.keep_alive_ns("f") == seconds(30)

    def test_adapts_to_observed_gaps(self):
        policy = HybridKeepAlive(
            HybridHistogram(
                bin_width_ns=seconds(5),
                min_observations=4,
                default_keep_ns=seconds(600),
            )
        )
        for _ in range(8):
            policy.observe_idle_gap("f", seconds(7))
        # Gaps in bin 1 -> adaptive window, no longer the fallback.
        assert policy.keep_alive_ns("f") < seconds(600)

    def test_prewarm_window_folds_into_keep_alive(self):
        hist = HybridHistogram(
            bin_width_ns=seconds(5), min_observations=4
        )
        policy = HybridKeepAlive(hist)
        for _ in range(8):
            policy.observe_idle_gap("f", seconds(42))
        decision = hist.decision(0)
        assert decision.prewarm_ns is not None
        assert policy.keep_alive_ns("f") == (
            decision.prewarm_ns + decision.keep_alive_ns
        )

    def test_per_function_isolation(self):
        policy = HybridKeepAlive(
            HybridHistogram(bin_width_ns=seconds(5), min_observations=2)
        )
        for _ in range(4):
            policy.observe_idle_gap("short", seconds(2))
            policy.observe_idle_gap("long", seconds(200))
        assert policy.keep_alive_ns("short") < policy.keep_alive_ns("long")

    def test_negative_gap_rejected(self):
        with pytest.raises(ValueError):
            HybridKeepAlive().observe_idle_gap("f", -1)
