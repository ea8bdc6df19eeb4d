"""One policy call per arrival equals the three-call sequence.

The replay's capacity cell makes one ``PrewarmPolicy.on_arrival(fn,
gap_ns, warm)`` call per arrival.  This differential drives random
per-function arrival sequences through it and, side by side, through
``observe_gap`` -> ``record_outcome`` -> ``decision`` twice: on the same
spelling, and on a reference that keeps the hybrid policy's three rules
as three separate bodies.  Every registered prewarm spelling is
covered.  After every step the decisions, histograms, cursors and miss
streaks must be identical.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faas.keepalive import HybridHistogram, make_policy
from repro.sim.units import SECOND

SPELLINGS = ["none", "fixed-600", "hybrid", "hybrid-10"]
FUNCTIONS = range(3)


class ThreeBodyHybrid(HybridHistogram):
    """The hybrid policy with each rule in its own method: the reference."""

    def observe_gap(self, fn, gap_ns):
        self.histogram(fn).observe(gap_ns)

    def record_outcome(self, fn, warm):
        if warm:
            self._misses[fn] = 0
            return
        misses = self._misses.get(fn, 0) + 1
        if misses >= self.pattern_miss_limit:
            entry = self._functions.get(fn)
            if entry is not None:
                entry[0].reset()
            misses = 0
        self._misses[fn] = misses

    def decision(self, fn):
        entry = self._functions.get(fn)
        if entry is None:
            return self._fallback
        hist, head, tail = entry
        if hist.total < self.min_observations:
            return self._fallback
        if hist.oob / hist.total > self.oob_threshold:
            return self._fallback
        bins = (head[1], tail[1])
        window = self._windows.get(bins)
        if window is None:
            window = self._windows[bins] = self._window(hist, *bins)
        return window


def reference_for(spec):
    """*spec*'s policy with its rules as separate bodies."""
    policy = make_policy(spec)
    if not isinstance(policy, HybridHistogram):
        return policy                     # no state: decision() is the rule
    return ThreeBodyHybrid(bin_width_ns=policy.bin_width_ns)


def three_calls(policy, fn, gap_ns, warm):
    if gap_ns is not None:
        policy.observe_gap(fn, gap_ns)
    if warm is not None:
        policy.record_outcome(fn, warm)
    return policy.decision(fn)


def state_of(policy, fn):
    """Everything a later decision about *fn* can depend on."""
    if not isinstance(policy, HybridHistogram):
        return None
    entry = policy._functions.get(fn)
    histogram = None
    if entry is not None:
        hist, head, tail = entry
        assert hist._cursors[policy.head_pct] is head
        assert hist._cursors[policy.tail_pct] is tail
        histogram = (
            list(hist.counts), hist.oob, hist.total,
            sorted((pct, list(cursor)) for pct, cursor in hist._cursors.items()),
        )
    return histogram, policy._misses.get(fn)


@st.composite
def arrivals(draw, width_ns, miss_limit):
    """``(fn, gap_ns, warm)`` steps: first, warm, cold, concurrent and
    negative-gap arrivals, and cold streaks long enough to reset."""
    def gap():
        # Mostly the first few bins (so percentiles form), some OOB.
        bin_index = draw(st.one_of(
            st.integers(min_value=0, max_value=3),
            st.integers(min_value=0, max_value=125),
        ))
        return bin_index * width_ns + draw(
            st.integers(min_value=0, max_value=width_ns - 1)
        )

    steps = []
    for _ in range(draw(st.integers(min_value=0, max_value=60))):
        fn = draw(st.sampled_from(FUNCTIONS))
        kind = draw(st.sampled_from(
            ["first", "warm", "warm", "cold", "concurrent", "streak", "negative"]
        ))
        if kind == "first":
            steps.append((fn, None, False))
        elif kind in ("warm", "cold"):
            steps.append((fn, gap(), kind == "warm"))
        elif kind == "concurrent":
            steps.append((fn, None, None))
        elif kind == "streak":
            length = draw(st.integers(min_value=miss_limit, max_value=miss_limit + 2))
            steps.extend((fn, gap(), False) for _ in range(length))
        else:
            negative = -draw(st.integers(min_value=1, max_value=width_ns))
            steps.append((fn, negative, draw(st.booleans())))
    return steps


@pytest.mark.parametrize("spec", SPELLINGS)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_one_call_equals_three_calls(spec, data):
    one, wrapped, reference = make_policy(spec), make_policy(spec), reference_for(spec)
    hybrid = isinstance(one, HybridHistogram)
    width_ns = one.bin_width_ns if hybrid else 60 * SECOND
    miss_limit = one.pattern_miss_limit if hybrid else 4
    for fn, gap_ns, warm in data.draw(arrivals(width_ns, miss_limit)):
        if hybrid and gap_ns is not None and gap_ns < 0:
            # A negative gap is a bookkeeping bug upstream: every path
            # refuses it before recording the outcome.  (A stateless
            # policy never looks at the gap.)
            for policy in (wrapped, reference):
                with pytest.raises(ValueError):
                    three_calls(policy, fn, gap_ns, warm)
            with pytest.raises(ValueError):
                one.on_arrival(fn, gap_ns, warm)
            decisions = [p.decision(fn) for p in (one, wrapped, reference)]
        else:
            decisions = [
                one.on_arrival(fn, gap_ns, warm),
                three_calls(wrapped, fn, gap_ns, warm),
                three_calls(reference, fn, gap_ns, warm),
            ]
        assert decisions[0] == decisions[1] == decisions[2]
        for other in FUNCTIONS:
            expected = state_of(reference, other)
            assert state_of(one, other) == expected
            assert state_of(wrapped, other) == expected
