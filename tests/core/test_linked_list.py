"""SortedLinkedList: sorted inserts, removal, splicing, invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.linked_list import ListNode, SortedLinkedList


def make_list(values=()):
    lst = SortedLinkedList(key=lambda v: v)
    for value in values:
        lst.insert_sorted(value)
    return lst


class TestBasics:
    def test_empty_list(self):
        lst = make_list()
        assert len(lst) == 0
        assert not lst
        assert lst.first() is None
        assert lst.to_list() == []

    def test_single_insert(self):
        lst = make_list([5])
        assert lst.to_list() == [5]
        assert lst.first() == 5

    def test_inserts_keep_sorted_order(self):
        lst = make_list([3, 1, 2])
        assert lst.to_list() == [1, 2, 3]

    def test_duplicate_keys_fifo(self):
        lst = SortedLinkedList(key=lambda pair: pair[0])
        lst.insert_sorted((1, "first"))
        lst.insert_sorted((1, "second"))
        assert [tag for _, tag in lst] == ["first", "second"]

    def test_len_tracks_inserts(self):
        lst = make_list(range(10))
        assert len(lst) == 10

    def test_iteration_yields_values(self):
        assert list(make_list([2, 1])) == [1, 2]

    def test_pop_first_returns_smallest(self):
        lst = make_list([3, 1, 2])
        assert lst.pop_first() == 1
        assert lst.to_list() == [2, 3]

    def test_pop_first_empty_returns_none(self):
        assert make_list().pop_first() is None


class TestRemove:
    def test_remove_existing(self):
        lst = make_list([1, 2, 3])
        assert lst.remove(2) is True
        assert lst.to_list() == [1, 3]
        assert len(lst) == 2

    def test_remove_missing_returns_false(self):
        lst = make_list([1])
        assert lst.remove(9) is False
        assert len(lst) == 1

    def test_remove_by_identity(self):
        class Box:
            def __init__(self, v):
                self.v = v

        lst = SortedLinkedList(key=lambda b: b.v)
        a, b = Box(1), Box(1)
        lst.insert_sorted(a)
        lst.insert_sorted(b)
        assert lst.remove(b) is True
        assert lst.to_list() == [a] or lst.to_list()[0] is a

    def test_remove_head_and_tail(self):
        lst = make_list([1, 2, 3])
        lst.remove(1)
        lst.remove(3)
        assert lst.to_list() == [2]


class TestSplice:
    def test_splice_into_empty_list(self):
        lst = make_list()
        head = ListNode(1)
        tail = ListNode(2)
        head.next = tail
        lst.splice_after(lst.head, head, tail, 2)
        assert lst.to_list() == [1, 2]
        assert len(lst) == 2

    def test_splice_in_middle_preserves_order(self):
        lst = make_list([1, 4])
        head = ListNode(2)
        tail = ListNode(3)
        head.next = tail
        anchor = lst.head.next  # node holding 1
        lst.splice_after(anchor, head, tail, 2)
        assert lst.to_list() == [1, 2, 3, 4]
        assert not lst.structure_errors()

    def test_splice_single_node(self):
        lst = make_list([1, 3])
        node = ListNode(2)
        lst.splice_after(lst.head.next, node, node, 1)
        assert lst.to_list() == [1, 2, 3]

    def test_splice_zero_length_rejected(self):
        lst = make_list([1])
        node = ListNode(2)
        with pytest.raises(ValueError):
            lst.splice_after(lst.head, node, node, 0)

    def test_splice_does_not_count_scan_steps(self):
        lst = make_list([1, 2, 3])
        lst.scan_steps = 0
        node = ListNode(0)
        lst.splice_after(lst.head, node, node, 1)
        assert lst.scan_steps == 0


class TestScanAccounting:
    def test_insert_into_empty_costs_zero_scans(self):
        lst = make_list()
        lst.insert_sorted(1)
        assert lst.scan_steps == 0

    def test_insert_at_end_scans_whole_list(self):
        lst = make_list([1, 2, 3])
        lst.scan_steps = 0
        lst.insert_sorted(10)
        assert lst.scan_steps == 3

    def test_insert_at_front_costs_zero_scans(self):
        lst = make_list([5, 6])
        lst.scan_steps = 0
        lst.insert_sorted(1)
        assert lst.scan_steps == 0


class TestInvariantsProperty:
    @given(st.lists(st.integers(min_value=-1000, max_value=1000), max_size=60))
    @settings(max_examples=60)
    def test_always_sorted_and_sized(self, values):
        lst = make_list(values)
        assert not lst.structure_errors()
        assert lst.to_list() == sorted(values)

    @given(
        st.lists(st.integers(0, 100), min_size=1, max_size=40),
        st.data(),
    )
    @settings(max_examples=40)
    def test_remove_preserves_invariants(self, values, data):
        lst = make_list(values)
        victim = data.draw(st.sampled_from(values))
        assert lst.remove(victim)
        expected = sorted(values)
        expected.remove(victim)
        assert lst.to_list() == expected
        assert not lst.structure_errors()
