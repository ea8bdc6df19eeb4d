"""The control-plane ``repro.check`` checkers: silent on a sound
crash-and-recover run, and each names the fault planted in a log."""

import pytest

from repro.controlplane import fencing_checker, no_duplicate_routing_checker
from repro.sim.units import milliseconds

from tests.controlplane.conftest import build_plane


@pytest.fixture
def recovered_plane(engine):
    """Two shards; the firewall's home shard crashes with work in flight
    and recovers from its log while traffic keeps arriving."""
    plane = build_plane(engine, shards=2)
    home = plane.ring.owner("firewall", range(plane.ring.nodes))
    for origin in range(12):
        function = "firewall" if origin % 2 == 0 else "background"
        engine.schedule_at(
            milliseconds(origin) // 2,
            lambda f=function, o=origin: plane.submit(f, origin=o),
            label=f"submit:{origin}",
        )
    engine.schedule_at(
        milliseconds(1), lambda: plane.crash_shard(home, engine.now), label="crash"
    )
    engine.schedule_at(
        milliseconds(4),
        lambda: plane.recover_shard(home, engine.now),
        label="recover",
    )
    engine.run()
    shard = plane.shards[home]
    # Not vacuous: the replacement re-dispatched orphans under new fences.
    assert shard.recoveries == 1 and shard.redispatched > 0
    assert any(r.kind == "launch" and r.epoch == 1 for r in shard.log.records)
    return plane, home


def test_sound_run_passes_both_checkers(engine, recovered_plane):
    plane, _ = recovered_plane
    assert fencing_checker(plane)(engine.now) == []
    assert no_duplicate_routing_checker(plane)(engine.now) == []


def test_fencing_checker_names_a_regressed_fence(engine, recovered_plane):
    plane, home = recovered_plane
    shard = plane.shards[home]
    shard.log.launch(t=engine.now, origin=0, epoch=shard.epoch, fence=1, host=0)
    problems = fencing_checker(plane)(engine.now)
    assert len(problems) == 1
    assert problems[0].startswith(f"shard {home}: launch fence 1 not monotone")
    assert no_duplicate_routing_checker(plane)(engine.now) == []


def test_routing_checker_names_an_origin_in_two_logs(engine, recovered_plane):
    plane, home = recovered_plane
    other = 1 - home
    admitted = plane.shards[home].log.admitted(0)
    assert admitted is not None and plane.shards[other].log.admitted(0) is None
    plane.shards[other].log.admit(
        t=engine.now,
        origin=0,
        epoch=plane.shards[other].epoch,
        function=admitted.function,
        priority=admitted.priority,
        submit_ns=admitted.submit_ns,
        deadline_ns=admitted.deadline_ns,
    )
    assert no_duplicate_routing_checker(plane)(engine.now) == [
        f"origin 0 admitted by both shard {min(home, other)} "
        f"and shard {max(home, other)}"
    ]
