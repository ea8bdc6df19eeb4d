"""P2SM: precomputation correctness and the O(1) merge phase."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.linked_list import SortedLinkedList
from repro.core.p2sm import P2SMState, sorted_merge_reference


def make_target(values=()):
    lst = SortedLinkedList(key=lambda v: v)
    for value in values:
        lst.insert_sorted(value)
    return lst


class TestPrecompute:
    def test_array_b_mirrors_target(self):
        target = make_target([10, 20, 30])
        state = P2SMState([], target)
        assert len(state.array_b) == 4  # sentinel + 3 nodes
        assert state.array_b[0] is target.head
        assert [n.value for n in state.array_b[1:]] == [10, 20, 30]

    def test_pos_a_buckets_by_insertion_position(self):
        target = make_target([10, 30])
        state = P2SMState([5, 15, 20, 40], target)
        assert sorted(state.pos_a) == [0, 1, 2]
        assert state.pos_a[0].values() == [5]
        assert state.pos_a[1].values() == [15, 20]
        assert state.pos_a[2].values() == [40]

    def test_empty_target_single_bucket(self):
        state = P2SMState([3, 1, 2], make_target())
        assert sorted(state.pos_a) == [0]
        assert state.pos_a[0].values() == [1, 2, 3]

    def test_values_a_sorted_on_construction(self):
        state = P2SMState([3, 1, 2], make_target([10]))
        assert state.values_a == [1, 2, 3]

    def test_equal_keys_go_after_target_element(self):
        target = make_target([10])
        state = P2SMState([10], target)
        # key 10 ties with target's 10 -> position 1 (after it)
        assert sorted(state.pos_a) == [1]

    def test_report_counts(self):
        target = make_target([10, 20])
        state = P2SMState([5, 15], target)
        assert len(state.array_b) == 3
        assert len(state.pos_a) == 2
        assert sum(chain.length for chain in state.pos_a.values()) == 2


class TestMerge:
    def test_merge_produces_sorted_union(self):
        target = make_target([10, 30])
        state = P2SMState([5, 20, 40], target)
        report = state.merge()
        assert target.to_list() == [5, 10, 20, 30, 40]
        assert not target.structure_errors()
        assert report.merged_elements == 3

    def test_merge_into_empty_target(self):
        target = make_target()
        state = P2SMState([2, 1], target)
        state.merge()
        assert target.to_list() == [1, 2]

    def test_merge_empty_a_is_noop(self):
        target = make_target([1, 2])
        state = P2SMState([], target)
        report = state.merge()
        assert target.to_list() == [1, 2]
        assert report.threads == 0

    def test_thread_count_equals_posa_keys(self):
        target = make_target([10, 30])
        state = P2SMState([5, 20, 40], target)
        keys = len(state.pos_a)
        report = state.merge()
        assert report.threads == keys

    def test_two_pointer_writes_per_thread(self):
        target = make_target([10, 30])
        state = P2SMState([5, 20, 40], target)
        report = state.merge()
        assert report.pointer_writes == 2 * report.threads

    def test_merge_consumes_state(self):
        target = make_target([10])
        state = P2SMState([5], target)
        state.merge()
        assert state.pos_a == {}
        assert state.values_a == []

    def test_merge_does_not_scan(self):
        target = make_target([10, 20, 30])
        state = P2SMState([5, 15, 25, 35], target)
        target.scan_steps = 0
        state.merge()
        assert target.scan_steps == 0


class TestIncrementalMaintenance:
    def test_refresh_after_target_change(self):
        target = make_target([10])
        state = P2SMState([5, 15], target)
        target.insert_sorted(12)
        state.refresh()
        state.merge()
        assert target.to_list() == [5, 10, 12, 15]
        assert not target.structure_errors()


class TestReferenceMerge:
    def test_reference_merge_sorted(self):
        target = make_target([2, 4])
        steps = sorted_merge_reference(target, [1, 3, 5])
        assert target.to_list() == [1, 2, 3, 4, 5]
        assert steps >= 0

    def test_reference_merge_counts_scans(self):
        target = make_target(list(range(10)))
        steps = sorted_merge_reference(target, [100])
        assert steps == 10  # scanned past all existing elements


class TestMergeEquivalenceProperty:
    @given(
        st.lists(st.integers(0, 100), max_size=30),
        st.lists(st.integers(0, 100), max_size=30),
    )
    @settings(max_examples=80)
    def test_p2sm_equals_reference_sorted_merge(self, b_values, a_values):
        """The paper's central correctness claim: P2SM's spliced result
        is exactly the sequential sorted merge's result."""
        p2sm_target = make_target(b_values)
        state = P2SMState(list(a_values), p2sm_target)
        state.merge()

        reference_target = make_target(b_values)
        sorted_merge_reference(reference_target, list(a_values))

        assert p2sm_target.to_list() == reference_target.to_list()
        assert p2sm_target.to_list() == sorted(b_values + a_values)
        assert not p2sm_target.structure_errors()

    @given(
        st.lists(st.integers(0, 50), max_size=20),
        st.lists(st.integers(0, 50), min_size=1, max_size=20),
    )
    @settings(max_examples=50)
    def test_merge_is_o1_pointer_writes(self, b_values, a_values):
        """Pointer writes are bounded by 2 * distinct positions, never
        by the list sizes."""
        target = make_target(b_values)
        state = P2SMState(list(a_values), target)
        positions = len(state.pos_a)
        report = state.merge()
        assert report.pointer_writes == 2 * positions
        assert positions <= min(len(a_values), len(b_values) + 1)
