"""Multi-host cluster routing."""

import pytest

from repro.faas import FunctionSpec, StartType
from repro.faas.cluster import (
    FaaSCluster,
    LeastLoadedPlacement,
    NoHealthyHostError,
    RoundRobinPlacement,
    WarmAffinityPlacement,
)
from repro.sim.units import seconds
from repro.workloads import FirewallWorkload


def make_cluster(hosts=3, placement=None):
    cluster = FaaSCluster(hosts=hosts, seed=4, placement=placement)
    cluster.register(FunctionSpec("fw", FirewallWorkload()))
    return cluster


class TestConstruction:
    def test_host_count(self):
        assert len(make_cluster(hosts=4).hosts) == 4

    def test_zero_hosts_rejected(self):
        with pytest.raises(ValueError):
            FaaSCluster(hosts=0)

    def test_register_deploys_everywhere(self):
        cluster = make_cluster()
        assert all("fw" in host.registry for host in cluster.hosts)

    def test_provision_per_host(self):
        cluster = make_cluster()
        cluster.provision_warm("fw", per_host=2)
        assert sum(host.pool.size("fw") for host in cluster.hosts) == 6


class TestRoundRobin:
    def test_cycles_hosts(self):
        cluster = make_cluster(placement=RoundRobinPlacement())
        cluster.provision_warm("fw", per_host=2)
        for _ in range(6):
            cluster.trigger("fw", StartType.HORSE)
        assert cluster.stats.per_host_triggers == {0: 2, 1: 2, 2: 2}


class TestLeastLoaded:
    def test_prefers_idle_host(self):
        cluster = make_cluster(placement=LeastLoadedPlacement())
        cluster.provision_warm("fw", per_host=3)
        # Three concurrent triggers: each lands on a different host.
        for _ in range(3):
            cluster.trigger("fw", StartType.HORSE)
        assert set(cluster.stats.per_host_triggers) == {0, 1, 2}

    def test_in_flight_drains_on_completion(self):
        cluster = make_cluster(placement=LeastLoadedPlacement())
        cluster.provision_warm("fw", per_host=1)
        cluster.trigger("fw", StartType.HORSE)
        assert sum(cluster.in_flight.values()) == 1
        cluster.engine.run(until=seconds(1))
        assert sum(cluster.in_flight.values()) == 0


class TestWarmAffinity:
    def test_routes_to_host_with_warm_sandbox(self):
        cluster = make_cluster(placement=WarmAffinityPlacement())
        # Only host 2 has a warm pool.
        cluster.hosts[2].provision_warm("fw", count=1)
        cluster.trigger("fw", StartType.HORSE)
        assert cluster.stats.per_host_triggers == {2: 1}
        assert cluster.stats.cold_fallbacks == 0

    def test_cold_fallback_when_nowhere_warm(self):
        cluster = make_cluster(placement=WarmAffinityPlacement())
        invocation = cluster.trigger("fw", StartType.HORSE)
        cluster.engine.run(until=seconds(3))
        assert cluster.stats.cold_fallbacks == 1
        assert invocation.start_type is StartType.COLD

    def test_avoids_cold_starts_vs_round_robin(self):
        """The point of warm affinity: same traffic, fewer colds."""
        def run(placement):
            cluster = make_cluster(placement=placement)
            cluster.hosts[0].provision_warm("fw", count=4)
            for _ in range(4):
                cluster.trigger("fw", StartType.HORSE)
                cluster.engine.run(until=cluster.engine.now + seconds(1))
            return cluster.stats.cold_fallbacks

        assert run(WarmAffinityPlacement()) < run(RoundRobinPlacement())


class TestRoutabilityUnderFailure:
    """Placement must only ever see healthy, breaker-admitted hosts."""

    def test_least_loaded_skips_crashed_host(self):
        cluster = make_cluster(placement=LeastLoadedPlacement())
        cluster.provision_warm("fw", per_host=2)
        cluster.crash_host(0)
        for _ in range(4):
            cluster.trigger("fw", StartType.HORSE)
        assert 0 not in cluster.stats.per_host_triggers

    def test_warm_affinity_skips_crashed_host(self):
        cluster = make_cluster(placement=WarmAffinityPlacement())
        # Host 0 is the only warm host — then it dies.
        cluster.hosts[0].provision_warm("fw", count=4)
        cluster.hosts[1].provision_warm("fw", count=1)
        cluster.crash_host(0)
        cluster.trigger("fw", StartType.HORSE)
        assert cluster.stats.per_host_triggers == {1: 1}

    def test_round_robin_skips_crashed_host(self):
        cluster = make_cluster(placement=RoundRobinPlacement())
        cluster.provision_warm("fw", per_host=2)
        cluster.crash_host(1)
        for _ in range(4):
            cluster.trigger("fw", StartType.HORSE)
        assert 1 not in cluster.stats.per_host_triggers

    def test_host_gate_vetoes_routing(self):
        # The resilience layer passes its per-node circuit breakers as
        # the routing gate; an open breaker must steer placement away.
        cluster = make_cluster(placement=LeastLoadedPlacement())
        cluster.provision_warm("fw", per_host=2)
        gate = lambda index: index != 0
        for _ in range(4):
            candidates = cluster.routable_or_empty(gate=gate)
            index = cluster.placement.choose_from(cluster, "fw", candidates)
            cluster.trigger_on(index, "fw", StartType.HORSE)
        assert 0 not in cluster.stats.per_host_triggers

    def test_no_routable_host_raises(self):
        cluster = make_cluster(hosts=2)
        cluster.crash_host(0)
        # Gating the survivor leaves nothing routable ...
        assert cluster.routable_or_empty(gate=lambda index: index != 1) == []
        cluster.crash_host(1)
        # ... and with every host down the cluster's own placement raises.
        with pytest.raises(NoHealthyHostError):
            cluster.trigger("fw", StartType.HORSE)

    def test_trigger_on_downed_host_rejected(self):
        cluster = make_cluster()
        cluster.provision_warm("fw", per_host=1)
        cluster.crash_host(2)
        with pytest.raises(NoHealthyHostError):
            cluster.trigger_on(2, "fw", StartType.HORSE)

    def test_crash_destroys_pool_and_counts(self):
        cluster = make_cluster()
        cluster.provision_warm("fw", per_host=2)
        lost = cluster.crash_host(1)
        assert lost == 2
        assert cluster.hosts[1].pool.size("fw") == 0
        assert cluster.stats.crashes == 1
        assert not cluster.health[1].up

    def test_warm_affinity_returns_after_recovery(self):
        """Affinity redistributes back once a host recovers and re-warms."""
        cluster = make_cluster(placement=WarmAffinityPlacement())
        cluster.hosts[0].provision_warm("fw", count=8)
        cluster.hosts[1].provision_warm("fw", count=1)
        cluster.crash_host(0)
        cluster.trigger("fw", StartType.HORSE)       # host 1: only warm one
        cluster.recover_host(0)
        cluster.hosts[0].provision_warm("fw", count=8)
        cluster.engine.run(until=seconds(1))         # drain in-flight
        for _ in range(3):
            cluster.trigger("fw", StartType.HORSE)
            cluster.engine.run(until=cluster.engine.now + seconds(1))
        # Recovered, deeply-warm host 0 serves the follow-up traffic.
        assert cluster.stats.per_host_triggers[0] >= 3
        assert cluster.health[0].up and cluster.health[0].recoveries == 1

    def test_excluding_is_scoped(self):
        cluster = make_cluster(hosts=2, placement=LeastLoadedPlacement())
        cluster.provision_warm("fw", per_host=2)
        assert cluster.routable_or_empty(exclude=0) == [1]
        assert cluster.routable_or_empty() == [0, 1]
        assert cluster.routable_hosts() == [0, 1]


class TestEndToEnd:
    def test_mixed_traffic_completes_everywhere(self):
        cluster = make_cluster(hosts=2)
        cluster.provision_warm("fw", per_host=2)
        invocations = [
            cluster.trigger("fw", StartType.HORSE, run_logic=True)
            for _ in range(8)
        ]
        cluster.engine.run(until=seconds(2))
        assert all(inv.completed and inv.error is None for inv in invocations)

    def test_single_shared_clock(self):
        cluster = make_cluster(hosts=2)
        assert all(host.engine is cluster.engine for host in cluster.hosts)
