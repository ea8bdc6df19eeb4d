"""Control-plane routing, failover spill, and frontend parking (S6)."""

import pytest

from repro.controlplane import ControlPlane, exactly_once_checker
from repro.sim.engine import Engine
from repro.sim.units import milliseconds

from tests.controlplane.conftest import build_plane


class TestRouting:
    def test_submit_lands_on_preferred_owner(self, engine):
        plane = build_plane(engine, shards=3)
        home = plane.ring.owner("firewall", range(plane.ring.nodes))
        plane.submit("firewall", origin=1)
        assert plane.shards[home].log.admitted(1) is not None
        for index, shard in enumerate(plane.shards):
            if index != home:
                assert shard.log.admitted(1) is None

    def test_down_owner_spills_to_successor(self, engine):
        plane = build_plane(engine, shards=3)
        home = plane.ring.owner("firewall", range(plane.ring.nodes))
        plane.crash_shard(home, engine.now)
        plane.submit("firewall", origin=2)
        spill = next(
            i for i, s in enumerate(plane.shards)
            if s.log.admitted(2) is not None
        )
        assert spill != home
        # Recovery snaps the key straight back to its home shard.
        plane.recover_shard(home, engine.now)
        plane.submit("firewall", origin=3)
        assert plane.shards[home].log.admitted(3) is not None

    def test_empty_shard_list_rejected(self):
        with pytest.raises(ValueError):
            ControlPlane(Engine(), [])


class TestParking:
    def test_all_shards_down_parks_at_frontend(self, engine):
        plane = build_plane(engine, shards=2)
        for index in range(2):
            plane.crash_shard(index, engine.now)
        assert plane.submit("firewall", origin=1) is None
        assert plane.submit("background", origin=2) is None
        assert len(plane.parked) == 2
        assert plane.parked_total == 2 and plane.parked_peak == 2
        # FIFO order preserved.
        assert [p.origin for p in plane.parked] == [1, 2]

    def test_first_recovery_drains_the_parking_lot(self, engine):
        plane = build_plane(engine, shards=2)

        def blackout():
            for index in range(2):
                plane.crash_shard(index, engine.now)

        engine.schedule_at(milliseconds(1), blackout, label="blackout")
        engine.schedule_at(
            milliseconds(2),
            lambda: plane.submit("firewall", origin=1),
            label="submit",
        )
        engine.schedule_at(
            milliseconds(40),
            lambda: plane.recover_shard(0, engine.now),
            label="recover",
        )
        engine.run()
        assert plane.parked == []
        assert plane.drained_total == 1
        outcome = plane.shards[0].log.outcome_of(1)
        assert outcome is not None and outcome.state == "completed"
        # Latency is charged from the ORIGINAL arrival at 2 ms, so the
        # ~38 ms of frontend queueing is visible, not hidden.
        assert outcome.latency_ns >= milliseconds(38)

    def test_drain_reparks_if_all_down_again(self, engine):
        plane = build_plane(engine, shards=2)
        for index in range(2):
            plane.crash_shard(index, engine.now)
        plane.submit("firewall", origin=1)
        # Recover shard 0 but crash it inside the same instant before
        # the drained submit can route anywhere else: shard 1 is still
        # down, so the request must re-park, not be lost.
        plane.shards[0].recover(engine.now)
        plane.shards[0].down = True  # simulate immediate re-crash
        plane._drain_parked()
        assert [p.origin for p in plane.parked] == [1]

    def test_still_parked_at_end_is_a_violation(self, engine):
        plane = build_plane(engine, shards=1)
        plane.crash_shard(0, engine.now)
        plane.submit("firewall", origin=9)
        problems = exactly_once_checker(plane)(engine.now)
        assert any("still parked" in p and "9" in p for p in problems)

    def test_drained_run_passes_exactly_once(self, engine):
        plane = build_plane(engine, shards=2)
        for index in range(2):
            plane.crash_shard(index, engine.now)
        plane.submit("firewall", origin=1)
        plane.recover_shard(0, engine.now)
        plane.recover_shard(1, engine.now)
        engine.run()
        assert exactly_once_checker(plane)(engine.now) == []
