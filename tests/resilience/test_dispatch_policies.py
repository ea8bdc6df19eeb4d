"""Dispatch-policy API: registry semantics, hooks, and each contender.

The pluggable dispatch layer (DESIGN.md §15) routes every gateway
placement decision through a :class:`DispatchPolicy`.  These tests pin
the registry convention (specs, env var, ``register``), the
accelerator eligibility filter, and the per-policy behaviour the zoo
study relies on.
"""

import pytest

from repro.faas import FunctionSpec
from repro.faas.cluster import FaaSCluster
from repro.policyreg import PolicyRegistry
from repro.resilience import (
    DeadlineAwarePolicy,
    DispatchPolicy,
    MqfqStickyPolicy,
    PullQueuePolicy,
    PushPlacementPolicy,
    RequestState,
    ResilienceConfig,
    ResilientGateway,
    default_dispatch_policy,
    eligible_candidates,
    make_dispatch_policy,
)
from repro.resilience.policies import DISPATCH_POLICIES
from repro.sim.units import milliseconds, seconds
from repro.workloads import FirewallWorkload, SysbenchCpuWorkload


def make_stack(hosts=2, seed=4, dispatch="push-least-loaded", warm=2):
    cluster = FaaSCluster(hosts=hosts, seed=seed)
    cluster.register(FunctionSpec("fw", FirewallWorkload()))
    cluster.provision_warm("fw", per_host=warm)
    gateway = ResilientGateway(
        cluster, ResilienceConfig(dispatch=dispatch), seed=seed
    )
    return cluster, gateway


class TestRegistry:
    def test_all_four_families_registered(self):
        assert DISPATCH_POLICIES.families() == [
            "deadline",
            "mqfq-sticky",
            "pull",
            "push-least-loaded",
        ]

    def test_kinds_show_parameter_syntax(self):
        kinds = DISPATCH_POLICIES.kinds()
        assert "pull[-<slots>]" in kinds
        assert "deadline[-<slack_ms>]" in kinds
        assert "push-least-loaded" in kinds

    def test_make_exact_and_parameterized(self):
        assert isinstance(make_dispatch_policy("pull"), PullQueuePolicy)
        assert make_dispatch_policy("pull-3").slots == 3
        assert make_dispatch_policy(
            "deadline-10"
        ).tight_slack_ns == milliseconds(10)
        assert isinstance(
            make_dispatch_policy("mqfq-sticky"), MqfqStickyPolicy
        )

    def test_unknown_and_malformed_specs_raise(self):
        for spec in ("", "nope", "pull-", "pull-x", "deadline-ms"):
            with pytest.raises(ValueError):
                make_dispatch_policy(spec)

    def test_default_is_push_least_loaded(self, monkeypatch):
        monkeypatch.delenv("REPRO_DISPATCH_POLICY", raising=False)
        assert default_dispatch_policy() == "push-least-loaded"

    def test_env_var_overrides_builtin(self, monkeypatch):
        monkeypatch.setenv("REPRO_DISPATCH_POLICY", "pull-2")
        assert default_dispatch_policy() == "pull-2"

    def test_invalid_env_var_raises_naming_it(self, monkeypatch):
        monkeypatch.setenv("REPRO_DISPATCH_POLICY", "garbage")
        with pytest.raises(ValueError, match="^REPRO_DISPATCH_POLICY: .*'garbage'"):
            default_dispatch_policy()

    def test_duplicate_family_rejected(self):
        registry = PolicyRegistry(axis="x", env_var="X", builtin="a")
        registry.register("a", lambda spec: spec)
        with pytest.raises(ValueError):
            registry.register("a", lambda spec: spec)

    def test_longest_parameterized_family_wins(self):
        registry = PolicyRegistry(axis="x", env_var="X", builtin="a")
        registry.register("a", lambda spec: ("a", spec), parameterized=True)
        registry.register(
            "a-b", lambda spec: ("a-b", spec), parameterized=True
        )
        assert registry.make("a-b-1") == ("a-b", "a-b-1")
        assert registry.make("a-1") == ("a", "a-1")


class TestAcceleratorTags:
    def test_tag_accelerator_validates_index_and_tags(self):
        cluster = FaaSCluster(hosts=2, seed=0)
        with pytest.raises(ValueError):
            cluster.tag_accelerator(5, "gpu")
        with pytest.raises(ValueError):
            cluster.tag_accelerator(0)
        with pytest.raises(ValueError):
            cluster.tag_accelerator(0, "  ")

    def test_tags_merge_sorted_and_deduped(self):
        cluster = FaaSCluster(hosts=2, seed=0)
        cluster.tag_accelerator(0, "gpu", "fpga", "gpu")
        cluster.tag_accelerator(0, "tpu")
        assert cluster.accelerators[0] == ("fpga", "gpu", "tpu")

    def test_spec_rejects_padded_accelerator(self):
        with pytest.raises(ValueError):
            FunctionSpec("f", FirewallWorkload(), accelerator=" gpu")

    def test_untagged_cluster_returns_input_list_unfiltered(self):
        cluster = FaaSCluster(hosts=2, seed=0)
        cluster.register(
            FunctionSpec("infer", FirewallWorkload(), accelerator="gpu")
        )
        candidates = [0, 1]
        assert eligible_candidates(cluster, "infer", candidates) is candidates

    def test_tagged_cluster_filters_by_requirement(self):
        cluster = FaaSCluster(hosts=3, seed=0)
        cluster.register(
            FunctionSpec("infer", FirewallWorkload(), accelerator="gpu")
        )
        cluster.register(FunctionSpec("plain", SysbenchCpuWorkload()))
        cluster.tag_accelerator(1, "gpu")
        assert eligible_candidates(cluster, "infer", [0, 1, 2]) == [1]
        plain = [0, 1, 2]
        assert eligible_candidates(cluster, "plain", plain) is plain


class TestBinding:
    def test_rebinding_to_a_different_gateway_raises(self):
        _, first = make_stack(seed=1)
        _, second = make_stack(seed=2)
        policy = first.dispatch
        with pytest.raises(ValueError):
            policy.bind(second)
        policy.bind(first)  # idempotent on the same gateway

    def test_base_hooks_are_push_shaped_noops(self):
        policy = DispatchPolicy()
        assert policy.on_host_idle(0) is False
        assert policy.order_queue([1, 2]) == [1, 2]
        assert policy.invariant_violations() == []
        with pytest.raises(NotImplementedError):
            policy.select_host(None, [0])


class TestPushPolicy:
    def test_gateway_default_is_push(self):
        _, gateway = make_stack()
        assert isinstance(gateway.dispatch, PushPlacementPolicy)
        assert gateway.dispatch.name == "push-least-loaded"

    def test_matches_cluster_placement_without_tags(self):
        cluster, gateway = make_stack(hosts=4, seed=7)
        request = gateway.submit("fw")
        assert request.attempts  # a host was chosen, not parked
        assert gateway.invariant_violations() == []


class TestPullPolicy:
    def test_slots_validated(self):
        with pytest.raises(ValueError):
            PullQueuePolicy(slots=0)

    def test_never_exceeds_slot_depth(self):
        cluster, gateway = make_stack(hosts=2, seed=3, dispatch="pull-1")
        for _ in range(8):
            gateway.submit("fw")
        for pairs in gateway._inflight.values():
            assert len(pairs) <= 1
        cluster.engine.run(until=seconds(30))
        assert gateway.invariant_violations() == []
        assert all(r.state.terminal for r in gateway.requests)

    def test_saturated_fleet_parks_then_drains_on_completion(self):
        cluster, gateway = make_stack(hosts=2, seed=3, dispatch="pull-1")
        requests = [gateway.submit("fw") for _ in range(6)]
        assert any(not r.attempts for r in requests)  # parked overflow
        cluster.engine.run(until=seconds(30))
        assert all(
            r.state is RequestState.COMPLETED for r in requests
        )

    def test_queue_releases_high_priority_first(self):
        policy = PullQueuePolicy()

        class Stub:
            def __init__(self, request_id, priority):
                self.request_id = request_id
                self.priority = priority

        parked = [Stub(0, 0), Stub(1, 1), Stub(2, 0), Stub(3, 1)]
        drained = list(policy.order_queue(parked))
        assert [r.request_id for r in drained] == [1, 3, 0, 2]


class TestMqfqPolicy:
    def test_tags_are_stamped_and_retired(self):
        cluster, gateway = make_stack(hosts=2, seed=5, dispatch="mqfq-sticky")
        policy = gateway.dispatch
        request = gateway.submit("fw")
        assert request.request_id in policy._tags
        cluster.engine.run(until=seconds(10))
        assert request.state is RequestState.COMPLETED
        assert request.request_id not in policy._tags
        assert gateway.invariant_violations() == []

    def test_flow_finish_tags_advance_by_inverse_weight(self):
        policy = MqfqStickyPolicy()

        class Stub:
            def __init__(self, request_id, function, priority):
                self.request_id = request_id
                self.function = function
                self.priority = priority

        policy.on_submit(Stub(0, "ull", 1))
        policy.on_submit(Stub(1, "batch", 0))
        assert policy._finish["batch"] == 4 * policy._finish["ull"]

    def test_queue_drains_in_virtual_time_order(self):
        policy = MqfqStickyPolicy()

        class Stub:
            def __init__(self, request_id, function, priority):
                self.request_id = request_id
                self.function = function
                self.priority = priority

        stubs = [Stub(i, f"flow{i}", 0) for i in range(3)]
        for stub in reversed(stubs):
            policy.on_submit(stub)
        # All flows start at tag 0; ties break by request id.
        assert [r.request_id for r in policy.order_queue(stubs)] == [0, 1, 2]

    def test_crash_clears_sticky_pointers(self):
        policy = MqfqStickyPolicy()
        policy._last_host = {"a": 0, "b": 1}
        policy.on_crash(0, now_ns=0)
        assert policy._last_host == {"b": 1}

    def test_sticky_depth_validated(self):
        with pytest.raises(ValueError):
            MqfqStickyPolicy(sticky_depth=0)


class TestDeadlinePolicy:
    def test_slack_validated(self):
        with pytest.raises(ValueError):
            DeadlineAwarePolicy(tight_slack_ns=-1)

    def test_queue_drains_earliest_deadline_first(self):
        policy = DeadlineAwarePolicy()

        class Stub:
            def __init__(self, request_id, deadline_ns):
                self.request_id = request_id
                self.deadline_ns = deadline_ns

        parked = [Stub(0, 300), Stub(1, 100), Stub(2, 200), Stub(3, 100)]
        drained = list(policy.order_queue(parked))
        assert [r.request_id for r in drained] == [1, 3, 2, 0]

    def test_runs_clean_end_to_end(self):
        cluster, gateway = make_stack(hosts=2, seed=9, dispatch="deadline")
        for _ in range(10):
            gateway.submit("fw", priority=1, deadline_ns=milliseconds(200))
        cluster.engine.run(until=seconds(30))
        assert gateway.invariant_violations() == []
        assert all(r.state.terminal for r in gateway.requests)


class TestConfigWiring:
    def test_resilience_config_none_means_process_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_DISPATCH_POLICY", raising=False)
        _, gateway = make_stack(dispatch=None)
        assert gateway.dispatch.name == "push-least-loaded"

    def test_resilience_config_spec_selects_policy(self):
        _, gateway = make_stack(dispatch="pull-2")
        assert isinstance(gateway.dispatch, PullQueuePolicy)
        assert gateway.dispatch.slots == 2

    def test_chaos_config_validates_dispatch_eagerly(self):
        from repro.experiments.chaos import ChaosConfig

        with pytest.raises(ValueError):
            ChaosConfig(dispatch="nope")

    def test_zoo_config_validates_mixes(self):
        from repro.experiments.dispatch_zoo import DispatchZooConfig

        with pytest.raises(ValueError):
            DispatchZooConfig(mixes=("weird",))
