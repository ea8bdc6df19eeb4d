"""PELT load tracking: decay, folds, coalesced equivalence."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.coalesce import CoalescedUpdate, apply_n_times, ulps_apart
from repro.hypervisor.load_tracking import (
    DECAY_FACTOR,
    DEFAULT_ENTITY_WEIGHT,
    PELT_PERIOD_NS,
    RunqueueLoad,
    coalesced_enqueue_update,
)


class TestDecay:
    def test_decay_halves_after_32_periods(self):
        load = RunqueueLoad(value=1000.0)
        load.decay_to(32 * PELT_PERIOD_NS)
        assert load.value == pytest.approx(500.0, rel=1e-9)

    def test_no_time_no_decay(self):
        load = RunqueueLoad(value=100.0, last_update_ns=50)
        load.decay_to(50)
        assert load.value == 100.0

    def test_decay_backwards_rejected(self):
        load = RunqueueLoad(value=1.0, last_update_ns=100)
        with pytest.raises(ValueError):
            load.decay_to(50)

    def test_decay_factor_definition(self):
        assert DECAY_FACTOR ** 32 == pytest.approx(0.5)


class TestEnqueue:
    def test_enqueue_from_zero(self):
        load = RunqueueLoad()
        load.enqueue_entity(0)
        assert load.value == pytest.approx(
            DEFAULT_ENTITY_WEIGHT * (1 - DECAY_FACTOR)
        )

    def test_enqueue_is_affine(self):
        """The paper's observation: the update is L(x) = alpha x + beta."""
        load = RunqueueLoad(value=300.0)
        update = load.enqueue_update()
        load.enqueue_entity(0)
        assert load.value == pytest.approx(update.apply(300.0))

    def test_repeated_enqueue_converges_to_weight(self):
        load = RunqueueLoad()
        for _ in range(2000):
            load.enqueue_entity(0)
        assert load.value == pytest.approx(DEFAULT_ENTITY_WEIGHT, rel=1e-6)

    def test_updates_counter(self):
        load = RunqueueLoad()
        load.enqueue_entity(0)
        load.enqueue_entity(0)
        assert load.folds_iterated == 2


class TestCoalescedApplication:
    def test_apply_coalesced_equals_n_folds(self):
        n = 36
        iterated = RunqueueLoad(value=555.0)
        update = iterated.enqueue_update()
        for _ in range(n):
            iterated.enqueue_entity(0)

        fused = RunqueueLoad(value=555.0)
        coalesced = update.compose_n(n)
        fused.apply_coalesced(0, coalesced.alpha_n, coalesced.beta_sum)

        assert fused.value == pytest.approx(iterated.value, rel=1e-12)
        assert fused.folds_coalesced == 1

    def test_apply_coalesced_decays_first(self):
        fused = RunqueueLoad(value=1000.0)
        fused.apply_coalesced(32 * PELT_PERIOD_NS, 1.0, 0.0)
        assert fused.value == pytest.approx(500.0)


class TestDequeue:
    def test_dequeue_removes_contribution(self):
        load = RunqueueLoad()
        load.enqueue_entity(0)
        load.dequeue_entity(0)
        assert load.value == pytest.approx(0.0, abs=1e-9)

    def test_dequeue_floors_at_zero(self):
        load = RunqueueLoad(value=1.0)
        load.dequeue_entity(0, weight=1e6)
        assert load.value == 0.0


VALUES = st.floats(min_value=0.0, max_value=1e7, allow_nan=False)
WEIGHTS = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
GAPS = st.integers(min_value=0, max_value=100 * PELT_PERIOD_NS)


class TestFoldBitIdentity:
    """The allocation-free folds are the affine-update expressions,
    float for float."""

    @given(value=VALUES, weight=WEIGHTS, start=GAPS, gap=GAPS)
    @settings(max_examples=300, deadline=None)
    def test_enqueue_entity_is_the_affine_update(self, value, weight, start, gap):
        folded = RunqueueLoad(value=value, last_update_ns=start)
        folded.enqueue_entity(start + gap, weight)
        reference = RunqueueLoad(value=value, last_update_ns=start)
        reference.decay_to(start + gap)
        expected = reference.enqueue_update(weight).apply(reference.value)
        assert ulps_apart(folded.value, expected) == 0
        assert folded.folds_iterated == 1

    @given(
        value=VALUES,
        weights=st.lists(WEIGHTS, min_size=1, max_size=8),
        start=GAPS,
        gap=GAPS,
    )
    @settings(max_examples=300, deadline=None)
    def test_dequeue_entities_is_one_dequeue_per_weight(
        self, value, weights, start, gap
    ):
        batched = RunqueueLoad(value=value, last_update_ns=start)
        batched.dequeue_entities(start + gap, weights)
        one_by_one = RunqueueLoad(value=value, last_update_ns=start)
        for weight in weights:
            one_by_one.dequeue_entity(start + gap, weight)
        assert ulps_apart(batched.value, one_by_one.value) == 0
        assert batched.last_update_ns == one_by_one.last_update_ns


class TestSharedCoalescedUpdate:
    def test_equals_a_fresh_precompute(self):
        template = RunqueueLoad().enqueue_update(DEFAULT_ENTITY_WEIGHT)
        for n in range(1, 65):
            fresh = CoalescedUpdate.precompute(template.alpha, template.beta, n)
            shared = coalesced_enqueue_update(n)
            assert shared == fresh, n
            assert ulps_apart(shared.alpha_n, fresh.alpha_n) == 0, n
            assert ulps_apart(shared.beta_sum, fresh.beta_sum) == 0, n
            assert coalesced_enqueue_update(n) is shared, n

    @pytest.mark.parametrize("n", [0, -1])
    def test_fewer_than_one_vcpu_rejected(self, n):
        with pytest.raises(ValueError):
            coalesced_enqueue_update(n)
