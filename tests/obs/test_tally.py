"""Registry tallies: folding at read time equals per-event updates.

A per-event site writes ``tally[value] += 1``; every registry read
folds the tally into the instruments.  For any integer sequence, with
reads and ``clear()`` at any points, the tallied registry must read
exactly like one fed by ``inc()`` / ``observe()`` per event.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import NULL_REGISTRY, MetricRegistry


def _fold(metrics, events):
    counter = metrics.counter("events")
    histogram = metrics.histogram("latency_ns")
    for value, n in events:
        counter.inc(n)
        histogram.observe(value, n)


#: Every registry read that folds the pending tallies.
_READS = ("names", "counters", "histograms", "snapshot", "render")


def _state(metrics):
    """Everything a reader can see of the two instruments."""
    snapshot = metrics.snapshot()
    histograms = metrics.histograms()
    state = {"names": metrics.names(), "snapshot": snapshot}
    if "latency_ns" in histograms:
        histogram = histograms["latency_ns"]
        state["histogram"] = (
            histogram.count, histogram.sum, histogram.minimum,
            histogram.maximum, list(histogram.counts),
            histogram.quantile(0.5), histogram.quantile(0.99),
        )
    return state


#: ns values: anything up to 1e12 ns, plus a few that repeat (n > 1)
_VALUES = st.one_of(
    st.integers(0, 10**12), st.sampled_from([0, 1, 5, 132, 10**10])
)
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("event"), _VALUES),
        st.tuples(st.just("read"), st.sampled_from(_READS)),
        st.tuples(st.just("clear"), st.none()),
    ),
    max_size=200,
)


@given(_OPS)
@settings(max_examples=200, deadline=None)
def test_tally_reads_like_per_event_updates(ops):
    tallied, direct = MetricRegistry(), MetricRegistry()
    tally = tallied.tally(_fold)
    for op, argument in ops:
        if op == "event":
            tally[argument] += 1
            direct.counter("events").inc()
            direct.histogram("latency_ns").observe(argument)
        elif op == "read":
            getattr(tallied, argument)()
            # That read alone folded every event so far (counter() and
            # histogram() read the instruments without folding).
            for metrics in (tallied, direct):
                metrics.counter("events")
                metrics.histogram("latency_ns")
            assert tallied.counter("events").value == direct.counter("events").value
            assert tallied.histogram("latency_ns").count == (
                direct.histogram("latency_ns").count
            )
            assert _state(tallied) == _state(direct)
        else:
            tallied.clear()
            direct.clear()
    # Reading again and again never folds an event twice.
    assert _state(tallied) == _state(direct)
    assert _state(tallied) == _state(direct)


def test_clear_drops_pending_counts_and_keeps_the_tally_live():
    metrics = MetricRegistry()
    tally = metrics.tally(_fold)
    tally[7] += 3
    metrics.clear()
    assert metrics.names() == []
    tally[9] += 1
    assert metrics.counters()["events"].value == 1
    assert metrics.histograms()["latency_ns"].sum == 9


def test_one_tally_per_fold_and_none_when_disabled():
    metrics = MetricRegistry()
    assert metrics.tally(_fold) is metrics.tally(_fold)
    assert MetricRegistry().tally(_fold) is not metrics.tally(_fold)
    assert NULL_REGISTRY.tally(_fold) is None


def test_pending_events_are_not_on_the_instrument_until_a_read():
    metrics = MetricRegistry()
    metrics.tally(_fold)[5] += 2
    assert metrics.counter("events").value == 0
    assert metrics.snapshot()["events"]["value"] == 2
