"""Streaming replayer: ordering, tie-break, bounded buffering, scale.

The property-based differential battery lives in
``test_replay_properties.py``; this file pins the deterministic
contracts with hand-built cases plus the production-cardinality soak
(marked ``soak``; tier-1 skips it via the default ``-m "not soak"``).
"""

import pytest

from repro.traces.replay import (
    ReplayConfig,
    ReplayStats,
    SplitMix64,
    arrival_stream,
    function_profile,
    materialized_oracle,
    merged_stream,
    stream_seed,
)


class TestSplitMix64:
    def test_reference_sequence(self):
        # SplitMix64 with seed 0 is pinned in the literature; guard the
        # constants against typos (first outputs of the reference impl).
        rng = SplitMix64(0)
        assert rng.next_u64() == 0xE220A8397B1DCDAF
        assert rng.next_u64() == 0x6E789E6AA1B965F4
        assert rng.next_u64() == 0x06C45D188009454F

    @pytest.mark.parametrize("seed", [0, 1, 0xDEADBEEF, 2**64 - 1, stream_seed(0, 3)])
    def test_draws_bit_exact_against_next_u64(self, seed):
        # Each random() call consumes exactly one 64-bit word: its top
        # 53 bits scaled into [0, 1).  The expected values come from a
        # second generator's next_u64(), whose first outputs
        # test_reference_sequence pins.
        rng, words = SplitMix64(seed), SplitMix64(seed)
        for _ in range(20_000):
            assert rng.random() == (words.next_u64() >> 11) / 2**53

    def test_random_in_unit_interval(self):
        rng = SplitMix64(1234)
        values = [rng.random() for _ in range(1000)]
        assert all(0.0 <= v < 1.0 for v in values)

    def test_paretovariate_at_least_one(self):
        rng = SplitMix64(7)
        assert all(rng.paretovariate(1.5) >= 1.0 for _ in range(100))

    def test_streams_independent_of_each_other(self):
        a = [SplitMix64(stream_seed(0, 0)).next_u64() for _ in range(4)]
        b = [SplitMix64(stream_seed(0, 1)).next_u64() for _ in range(4)]
        assert a != b

    def test_stream_seed_stable(self):
        # sha256-derived: must never drift across Python versions.
        assert stream_seed(0, 0) == stream_seed(0, 0)
        assert stream_seed(0, 1) != stream_seed(1, 0)


class TestReplayConfig:
    def test_defaults_valid(self):
        ReplayConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"functions": 0},
            {"duration_s": 0.0},
            {"mean_rate_per_function": -0.1},
            {"pareto_shape": 1.0},
            {"burst_on_fraction": 0.0},
            {"burst_mean_length_s": 0.0},
            {"idle_fraction": 1.2},
            {"periodic_fraction": -0.1},
            {"idle_fraction": 0.7, "periodic_fraction": 0.7},
            {"period_min_s": 0.0},
            {"period_min_s": 600.0, "period_max_s": 60.0},
            {"period_jitter": 0.6},
        ],
    )
    def test_bad_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ReplayConfig(**kwargs)


class TestFunctionProfile:
    def test_cohorts_cover_population(self):
        config = ReplayConfig(functions=300, seed=5)
        kinds = {
            function_profile(config, index).kind
            for index in range(config.functions)
        }
        assert kinds == {"idle", "periodic", "bursty"}

    def test_profile_is_deterministic_and_per_function(self):
        config = ReplayConfig(functions=50, seed=9)
        first = [function_profile(config, i) for i in range(50)]
        second = [function_profile(config, i) for i in range(50)]
        assert first == second

    def test_periodic_period_in_range(self):
        config = ReplayConfig(
            functions=200, seed=1, period_min_s=60.0, period_max_s=600.0
        )
        for index in range(config.functions):
            profile = function_profile(config, index)
            if profile.kind == "periodic":
                assert 60.0 <= profile.period_s <= 600.0
                assert 0.0 <= profile.phase_s <= profile.period_s

    def test_out_of_range_index_rejected(self):
        config = ReplayConfig(functions=4)
        with pytest.raises(ValueError):
            function_profile(config, 4)

    def test_idle_fraction_one_means_all_idle(self):
        config = ReplayConfig(
            functions=20, idle_fraction=1.0, periodic_fraction=0.0
        )
        assert all(
            function_profile(config, i).kind == "idle" for i in range(20)
        )


class TestArrivalStream:
    def test_idle_function_stream_empty(self):
        config = ReplayConfig(functions=30, idle_fraction=1.0,
                              periodic_fraction=0.0)
        for index in range(config.functions):
            assert list(arrival_stream(config, index)) == []

    def test_streams_nondecreasing_and_in_window(self):
        config = ReplayConfig(functions=60, duration_s=300.0, seed=3,
                              mean_rate_per_function=0.1)
        end_ns = round(config.duration_s * 1e9)
        for index in range(config.functions):
            timestamps = list(arrival_stream(config, index))
            assert timestamps == sorted(timestamps)
            # <= not <: bursty draws strictly inside the window can
            # round up to the ns boundary itself.
            assert all(0 <= t <= end_ns for t in timestamps)

    def test_stream_restartable(self):
        # Generators are single-shot, but a fresh call replays the same
        # sequence: the per-function PRNG state is derived, not shared.
        config = ReplayConfig(functions=10, duration_s=600.0, seed=11)
        for index in range(config.functions):
            assert list(arrival_stream(config, index)) == list(
                arrival_stream(config, index)
            )


class TestMergedStream:
    def make_config(self, **kwargs):
        base = dict(functions=80, duration_s=600.0, seed=21,
                    mean_rate_per_function=0.2)
        base.update(kwargs)
        return ReplayConfig(**base)

    def test_matches_materialized_oracle(self):
        config = self.make_config()
        assert list(merged_stream(config)) == materialized_oracle(config)

    def test_time_ordered_with_pinned_tie_break(self):
        config = self.make_config()
        events = list(merged_stream(config))
        # (t, index, seq) must be lexicographically sorted: duplicates
        # at merge boundaries order by function index, then sequence.
        assert events == sorted(events)

    def test_complete_per_function(self):
        config = self.make_config(functions=25)
        by_fn = {}
        for t, index, seq in merged_stream(config):
            assert seq == len(by_fn.setdefault(index, []))
            by_fn[index].append(t)
        for index in range(config.functions):
            assert by_fn.get(index, []) == list(arrival_stream(config, index))

    def test_buffering_bounded_by_function_count(self):
        config = self.make_config(functions=120)
        stats = ReplayStats()
        events = sum(1 for _ in merged_stream(config, stats))
        assert stats.events == events
        assert stats.peak_buffered <= config.functions
        assert events > config.functions  # the bound is about streams,
        # not events: far more events flow through than are ever held.

    def test_exhausted_streams_counted(self):
        config = self.make_config(functions=40)
        stats = ReplayStats()
        for _ in merged_stream(config, stats):
            pass
        assert stats.exhausted_streams == config.functions

    def test_subset_indices(self):
        config = self.make_config(functions=30)
        subset = [3, 7, 21]
        events = list(merged_stream(config, indices=subset))
        assert {index for _, index, _ in events} <= set(subset)
        full = [e for e in materialized_oracle(config) if e[1] in subset]
        assert events == full

    def test_same_seed_identical_different_seed_not(self):
        config = self.make_config()
        assert list(merged_stream(config)) == list(merged_stream(config))
        other = self.make_config(seed=22)
        assert list(merged_stream(config)) != list(merged_stream(other))


@pytest.mark.soak
class TestProductionCardinality:
    """50k functions x 1h: the bounded-memory regression (CI replay job)."""

    def test_bounded_buffering_at_50k_functions(self):
        config = ReplayConfig(functions=50_000, duration_s=3600.0, seed=0)
        stats = ReplayStats()
        last_t = -1
        events = 0
        for t, _index, _seq in merged_stream(config, stats):
            assert t >= last_t
            last_t = t
            events += 1
        # The hard ceiling: the merge never holds more pending events
        # than there are live streams, independent of event count.
        assert stats.peak_buffered <= config.functions
        # And the measured profile stays in its calibrated envelope —
        # a default-config drift that changes cardinality 10x would
        # silently invalidate the scale claims elsewhere.
        assert 1_000_000 < events < 2_000_000
        assert stats.peak_buffered < events / 10
