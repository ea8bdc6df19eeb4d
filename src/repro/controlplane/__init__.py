"""Crash-recoverable sharded gateway control plane (DESIGN.md §14).

One :class:`~repro.resilience.ResilientGateway` fronting the whole
cluster is a single point of simulation death.  This package splits the
control plane into N *gateway shards* behind a consistent-hash
function→shard router, gives each shard a Dirigent-style minimal
durable state — an append-only intent log — and makes gateway crashes a
recoverable event: a replacement shard rebuilds its in-flight table
from the log, re-dispatches orphaned work under fresh fencing tokens,
and conservatively re-opens breaker/admission state.

Correctness is provable, not just plausible: the log-derived invariants
(no invocation lost, none duplicated, fencing monotonicity, no
cross-epoch completions) plus the differential oracle in
:mod:`repro.experiments.cluster_recovery` — same seed, zero gateway
failures — lock exactly-once terminal outcomes.
"""

from repro.controlplane.checks import (
    exactly_once_checker,
    fencing_checker,
    intent_log_violations,
    no_duplicate_routing_checker,
    terminal_outcomes,
)
from repro.controlplane.hashring import HashRing
from repro.controlplane.intentlog import (
    ADMIT,
    LAUNCH,
    OUTCOME,
    IntentLog,
    IntentRecord,
)
from repro.controlplane.plane import ControlPlane, ParkedSubmit
from repro.controlplane.shard import GatewayShard

__all__ = [
    "ADMIT",
    "LAUNCH",
    "OUTCOME",
    "ControlPlane",
    "GatewayShard",
    "HashRing",
    "IntentLog",
    "IntentRecord",
    "ParkedSubmit",
    "exactly_once_checker",
    "fencing_checker",
    "intent_log_violations",
    "no_duplicate_routing_checker",
    "terminal_outcomes",
]
