"""Sandbox lifecycle state machine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hypervisor.sandbox import (
    Sandbox,
    SandboxError,
    SandboxState,
    _TRANSITIONS,
)


class TestConstruction:
    def test_starts_creating(self):
        assert Sandbox(vcpus=1, memory_mb=128).state is SandboxState.CREATING

    def test_vcpus_created_with_indices(self):
        sandbox = Sandbox(vcpus=3, memory_mb=128)
        assert [v.index for v in sandbox.vcpus] == [0, 1, 2]
        assert all(v.sandbox_id == sandbox.sandbox_id for v in sandbox.vcpus)

    def test_zero_vcpus_rejected(self):
        with pytest.raises(SandboxError):
            Sandbox(vcpus=0, memory_mb=128)

    def test_zero_memory_rejected(self):
        with pytest.raises(SandboxError):
            Sandbox(vcpus=1, memory_mb=0)

    def test_unique_ids(self):
        a = Sandbox(vcpus=1, memory_mb=128)
        b = Sandbox(vcpus=1, memory_mb=128)
        assert a.sandbox_id != b.sandbox_id

    def test_explicit_id(self):
        assert Sandbox(1, 128, sandbox_id="mine").sandbox_id == "mine"


class TestTransitions:
    def test_normal_lifecycle(self):
        sandbox = Sandbox(vcpus=1, memory_mb=128)
        for state in (
            SandboxState.RUNNING,
            SandboxState.PAUSED,
            SandboxState.RESUMING,
            SandboxState.RUNNING,
            SandboxState.STOPPED,
        ):
            sandbox.transition(state)
        assert sandbox.state is SandboxState.STOPPED

    def test_illegal_transition_raises(self):
        sandbox = Sandbox(vcpus=1, memory_mb=128)
        with pytest.raises(SandboxError):
            sandbox.transition(SandboxState.PAUSED)  # CREATING -> PAUSED

    def test_stopped_is_terminal(self):
        sandbox = Sandbox(vcpus=1, memory_mb=128)
        sandbox.transition(SandboxState.STOPPED)
        for state in SandboxState:
            with pytest.raises(SandboxError):
                sandbox.transition(state)

    @pytest.mark.parametrize("source", list(SandboxState))
    def test_transition_accepts_exactly_the_table_edges(self, source):
        for target in SandboxState:
            sandbox = Sandbox(vcpus=1, memory_mb=128)
            sandbox.state = source
            if target in _TRANSITIONS[source]:
                sandbox.transition(target)
                assert sandbox.state is target
            else:
                with pytest.raises(SandboxError, match="illegal transition"):
                    sandbox.transition(target)
                assert sandbox.state is source

    def test_require_state_passes(self):
        sandbox = Sandbox(vcpus=1, memory_mb=128)
        sandbox.require_state(SandboxState.CREATING, SandboxState.RUNNING)

    def test_require_state_raises_with_message(self):
        sandbox = Sandbox(vcpus=1, memory_mb=128)
        with pytest.raises(SandboxError, match="expected state paused"):
            sandbox.require_state(SandboxState.PAUSED)

    @given(st.lists(st.sampled_from(list(SandboxState)), max_size=12))
    @settings(max_examples=60)
    def test_state_never_escapes_transition_table(self, path):
        """Property: whatever sequence is attempted, the sandbox's
        state is only ever reached through a legal edge."""
        sandbox = Sandbox(vcpus=1, memory_mb=128)
        for target in path:
            legal = target in _TRANSITIONS[sandbox.state]
            if legal:
                sandbox.transition(target)
            else:
                with pytest.raises(SandboxError):
                    sandbox.transition(target)


class TestHorseArtifacts:
    def test_clear_artifacts(self):
        sandbox = Sandbox(vcpus=2, memory_mb=128)
        sandbox.merge_vcpus = list(sandbox.vcpus)
        sandbox.assigned_ull_runqueue = 5
        sandbox.clear_horse_artifacts()
        assert sandbox.merge_vcpus is None
        assert sandbox.assigned_ull_runqueue is None
