"""Consistent-hash ring: stable routing, minimal movement, failover."""

import bisect
import hashlib

import pytest

from repro.controlplane import HashRing
from repro.controlplane import hashring
from repro.controlplane.hashring import _h


class TestHashStability:
    def test_sha_based_hash_is_process_stable(self):
        # Python's builtin hash() is salted per process; the ring must
        # not be.  Pin a value so any drift (hash function, byte order,
        # truncation width) fails loudly.
        assert _h("firewall") == int.from_bytes(
            __import__("hashlib").sha256(b"firewall").digest()[:8], "big"
        )

    def test_same_population_same_ring(self):
        one, two = HashRing(5), HashRing(5)
        for key in ("firewall", "background", "fn-7", ""):
            assert one.owner(key, range(5)) == two.owner(key, range(5))


class TestRouting:
    def test_owner_requires_alive_membership(self):
        ring = HashRing(4)
        assert ring.owner("firewall", []) is None
        assert ring.owner("firewall", range(4)) in range(4)

    def test_single_node_owns_everything(self):
        ring = HashRing(1)
        assert ring.owner("a", range(ring.nodes)) == 0
        assert ring.owner("b", [0]) == 0

    def test_down_owner_spills_to_successor_and_snaps_back(self):
        ring = HashRing(4)
        key = "firewall"
        home = ring.owner(key, range(ring.nodes))
        alive = [i for i in range(4) if i != home]
        fallback = ring.owner(key, alive)
        assert fallback is not None and fallback != home
        # Recovery: the key snaps straight back to its home shard.
        assert ring.owner(key, range(4)) == home

    def test_other_keys_do_not_move_when_one_shard_dies(self):
        ring = HashRing(4, vnodes=64)
        keys = [f"fn-{i}" for i in range(200)]
        victim = ring.owner(keys[0], range(ring.nodes))
        alive = [i for i in range(4) if i != victim]
        for key in keys:
            home = ring.owner(key, range(ring.nodes))
            if home != victim:
                assert ring.owner(key, alive) == home

    def test_failover_walks_to_first_alive(self):
        ring = HashRing(3)
        key = "background"
        # With exactly one shard alive, it owns every key.
        for only in range(3):
            assert ring.owner(key, [only]) == only


class TestValidation:
    def test_bad_population_rejected(self):
        with pytest.raises(ValueError):
            HashRing(0)
        with pytest.raises(ValueError):
            HashRing(3, vnodes=0)

    def test_vnodes_spread_load(self):
        ring = HashRing(4, vnodes=64)
        owners = {ring.owner(f"fn-{i}", range(ring.nodes)) for i in range(400)}
        assert owners == set(range(4))


def _sha64(text):
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


def _scratch_owner(nodes, vnodes, salt, key, alive):
    """First alive node clockwise on a ring rebuilt from sha256 alone."""
    points = sorted(
        (_sha64(f"{salt}:{node}:{replica}"), node)
        for node in range(nodes)
        for replica in range(vnodes)
    )
    start = bisect.bisect_right([point for point, _ in points], _sha64(key))
    for step in range(len(points)):
        node = points[(start + step) % len(points)][1]
        if node in alive:
            return node
    return None


class TestSharedShape:
    @pytest.mark.parametrize(
        "nodes,vnodes,salt", [(1, 1, ""), (2, 3, "a"), (3, 64, ""), (5, 16, "z")]
    )
    def test_owners_match_a_from_scratch_sha256_ring(self, nodes, vnodes, salt):
        ring = HashRing(nodes, vnodes=vnodes, salt=salt)
        populations = [set(range(nodes)), {nodes - 1}, set(range(0, nodes, 2))]
        for alive in populations:
            for index in range(60):
                key = f"fn-{index}"
                assert ring.owner(key, alive) == _scratch_owner(
                    nodes, vnodes, salt, key, alive
                )

    def test_second_ring_of_one_shape_hashes_nothing(self, monkeypatch):
        calls = []

        def spy(key):
            calls.append(key)
            return _h(key)

        monkeypatch.setattr(hashring, "_h", spy)
        hashring._shape.cache_clear()
        first = HashRing(4, vnodes=8, salt="spy")
        assert len(calls) == 4 * 8
        del calls[:]
        second = HashRing(4, vnodes=8, salt="spy")
        assert calls == []
        assert second._points is first._points
        assert second._owners is first._owners
        other = HashRing(4, vnodes=8, salt="other")
        assert len(calls) == 4 * 8 and other._points != first._points

    def test_repeated_key_hashes_nothing(self, monkeypatch):
        calls = []

        def spy(key):
            calls.append(key)
            return _h(key)

        monkeypatch.setattr(hashring, "_h", spy)
        hashring._shape.cache_clear()
        first = HashRing(3, vnodes=4, salt="memo")
        del calls[:]
        home = first.owner("firewall", [0, 1, 2])
        assert calls == ["firewall"]
        del calls[:]
        # The same key: again, under another population, and on a
        # second ring of the same shape.
        assert first.owner("firewall", [0, 1, 2]) == home
        spill = first.owner("firewall", [n for n in range(3) if n != home])
        assert spill != home
        assert HashRing(3, vnodes=4, salt="memo").owner("firewall", range(3)) == home
        assert calls == []
        assert first.owner("background", range(3)) in range(3)
        assert calls == ["background"]
