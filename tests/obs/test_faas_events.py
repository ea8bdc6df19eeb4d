"""FaaS-layer structured events land in the obs bundle.

The gateway, pool, cluster and failure injector record into
:mod:`repro.obs` only: the invocation span, the pool/gateway counters,
and the ``node.crash`` / ``cluster.degrade`` instants.
"""

import pytest

from repro.faas import FaaSPlatform, FunctionSpec, StartType
from repro.faas.cluster import FaaSCluster
from repro.hypervisor.platform import firecracker_platform
from repro.obs import Observability, activate
from repro.resilience.failures import FailureConfig, FailureInjector
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry
from repro.sim.units import seconds
from repro.workloads import FirewallWorkload


def _counter(obs, name):
    return obs.metrics.counter(name).value


@pytest.fixture
def horse_run():
    """One provisioned HORSE trigger run to completion, fully traced."""
    obs = Observability()
    faas = FaaSPlatform(
        engine=Engine(),
        virt=firecracker_platform(),
        rngs=RngRegistry(0),
        obs=obs,
    )
    faas.register(FunctionSpec("fw", FirewallWorkload()))
    faas.provision_warm("fw", count=1)
    faas.trigger("fw", StartType.HORSE)
    faas.engine.run(until=seconds(1))
    return obs


class TestPlatformEvents:
    def test_horse_trigger_records_invocation_span(self, horse_run):
        (span,) = horse_run.tracer.find("invocation")
        assert span.attrs["start"] == "horse"
        assert span.attrs["sandbox"].startswith("sb-")

    def test_pool_hit_and_gateway_complete_counters(self, horse_run):
        assert _counter(horse_run, "pool.hit") == 1
        assert _counter(horse_run, "gateway.complete") == 1

    def test_default_platform_obs_disabled(self):
        faas = FaaSPlatform.build("firecracker")
        assert not faas.obs.enabled


class TestClusterEvents:
    def make_cluster(self, obs):
        with activate(obs):
            cluster = FaaSCluster(hosts=2, seed=3)
        cluster.register(FunctionSpec("fw", FirewallWorkload()))
        return cluster

    def test_crash_instant_carries_pooled_lost_and_domain(self):
        obs = Observability()
        cluster = self.make_cluster(obs)
        cluster.provision_warm("fw", per_host=2)
        injector = FailureInjector(
            cluster,
            FailureConfig(failure_rate=0.5, crash_mtbf_base_s=0.1),
            seed=5,
            domain=3,
        )
        assert injector.schedule_crashes(until_ns=seconds(2)) > 0
        cluster.engine.run(until=seconds(2))
        crashes = obs.tracer.find("node.crash")
        assert len(crashes) == injector.fired["node_crash"] > 0
        assert all(c.attrs["domain"] == 3 for c in crashes)
        assert crashes[0].attrs["pooled_lost"] == 2

    def test_degrade_records_instant_and_counter(self):
        obs = Observability()
        cluster = self.make_cluster(obs)
        cluster.trigger_on(1, "fw", StartType.WARM)  # empty pool: degrades
        (instant,) = obs.tracer.find("cluster.degrade")
        assert instant.attrs == {
            "function": "fw", "host": 1, "transition": "warm->cold"
        }
        assert _counter(obs, "cluster.degrade.warm->cold") == 1
