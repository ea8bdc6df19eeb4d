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

from repro import lazy_exports

_EXPORTS = {
    "exactly_once_checker": "repro.controlplane.checks",
    "fencing_checker": "repro.controlplane.checks",
    "intent_log_violations": "repro.controlplane.checks",
    "no_duplicate_routing_checker": "repro.controlplane.checks",
    "terminal_outcomes": "repro.controlplane.checks",
    "HashRing": "repro.controlplane.hashring",
    "ADMIT": "repro.controlplane.intentlog",
    "LAUNCH": "repro.controlplane.intentlog",
    "OUTCOME": "repro.controlplane.intentlog",
    "IntentLog": "repro.controlplane.intentlog",
    "IntentRecord": "repro.controlplane.intentlog",
    "ControlPlane": "repro.controlplane.plane",
    "ParkedSubmit": "repro.controlplane.plane",
    "GatewayShard": "repro.controlplane.shard",
}

__all__ = sorted(_EXPORTS)

__getattr__ = lazy_exports(__name__, _EXPORTS)
