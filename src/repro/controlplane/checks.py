"""Control-plane invariants: exactly-once, fencing, routing uniqueness.

The intent log is the authoritative account of what a shard did across
crashes, so the control plane's correctness claims are all statements
about logs:

* **fencing monotonicity** — launch fences are strictly increasing in
  log order (the fence counter survives recovery), and record epochs
  never regress;
* **no cross-epoch completion** — a ``completed`` outcome's fence must
  belong to a launch journaled in the *same* epoch as the outcome: a
  slow pre-crash attempt can never complete a request on behalf of the
  replacement incarnation;
* **no invocation lost** (final) — every admit has an outcome once the
  engine has drained;
* **none duplicated** — at most one admit and one outcome per origin
  within a log, and no origin appears in two shards' logs (the ring
  routes each function to exactly one alive shard at a time, and a
  recovered shard resumes its own log rather than forking a new one).

:func:`intent_log_violations` is the single-log core; the ``*_checker``
factories wrap it in the ``repro.check`` ``Checker`` shape
(``f(now_ns) -> list[str]``) over a whole plane, and
:func:`terminal_outcomes` extracts the origin→state map the
exactly-once differential oracle compares across runs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List

from repro.controlplane.intentlog import ADMIT, LAUNCH, OUTCOME, IntentLog
from repro.controlplane.plane import ControlPlane

if TYPE_CHECKING:
    # Annotation only: the control plane must not load the check harness.
    from repro.check.invariants import Checker


def _log_of(shard_or_log) -> IntentLog:
    log = getattr(shard_or_log, "log", shard_or_log)
    assert isinstance(log, IntentLog)
    return log


def intent_log_violations(shard_or_log, final: bool = False) -> List[str]:
    """Audit one shard's intent log.

    ``final=True`` additionally requires completeness (every admit has
    an outcome) — only meaningful once the engine has drained.
    """
    log = _log_of(shard_or_log)
    sid = f"shard {log.shard_id}"
    violations: List[str] = []
    last_fence = 0
    last_epoch = 0
    admit_order: List[int] = []
    admits: Dict[int, int] = {}
    outcome_counts: Dict[int, int] = {}
    launches: Dict[int, List] = {}
    for record in log.records:
        if record.epoch < last_epoch:
            violations.append(
                f"{sid}: epoch regressed {last_epoch} -> {record.epoch} "
                f"(origin {record.origin}, kind {record.kind})"
            )
        elif record.epoch > last_epoch:
            last_epoch = record.epoch
        if record.kind == LAUNCH:
            if record.fence <= last_fence:
                violations.append(
                    f"{sid}: launch fence {record.fence} not monotone "
                    f"(previous {last_fence}, origin {record.origin})"
                )
            else:
                last_fence = record.fence
            launches.setdefault(record.origin, []).append(record)
        elif record.kind == ADMIT:
            seen = admits.get(record.origin, 0)
            if seen:
                violations.append(
                    f"{sid}: origin {record.origin} admitted twice"
                )
            else:
                admit_order.append(record.origin)
            admits[record.origin] = seen + 1
        elif record.kind == OUTCOME:
            seen = outcome_counts.get(record.origin, 0)
            if seen:
                violations.append(
                    f"{sid}: origin {record.origin} resolved twice "
                    f"(duplicate completion)"
                )
            outcome_counts[record.origin] = seen + 1
            if record.origin not in admits:
                violations.append(
                    f"{sid}: outcome for origin {record.origin} "
                    f"without an admit"
                )
            if record.state == "completed":
                matched = any(
                    launch.fence == record.fence
                    and launch.epoch == record.epoch
                    for launch in launches.get(record.origin, ())
                )
                if record.fence <= 0 or not matched:
                    violations.append(
                        f"{sid}: origin {record.origin} completed under "
                        f"fence {record.fence} with no matching launch "
                        f"in epoch {record.epoch} (cross-epoch completion)"
                    )
    if final:
        for origin in admit_order:
            if origin not in outcome_counts:
                violations.append(
                    f"{sid}: origin {origin} admitted but never "
                    f"resolved (lost invocation)"
                )
    return violations


def no_duplicate_routing_violations(plane: ControlPlane) -> List[str]:
    """No origin may be admitted by two different shards' logs."""
    violations: List[str] = []
    owner_of: Dict[int, int] = {}
    for shard in plane.shards:
        for record in shard.log.records:
            if record.kind != ADMIT or record.origin < 0:
                continue
            previous = owner_of.setdefault(record.origin, shard.shard_id)
            if previous != shard.shard_id:
                violations.append(
                    f"origin {record.origin} admitted by both shard "
                    f"{previous} and shard {shard.shard_id}"
                )
    return violations


def terminal_outcomes(plane: ControlPlane) -> Dict[int, str]:
    """origin → terminal state, unioned over every shard's log.

    This is the quantity the exactly-once differential oracle compares:
    a chaos run and its zero-gateway-failure twin must produce the same
    map.  Unrouted submits (origin < 0) are excluded.
    """
    outcomes: Dict[int, str] = {}
    for shard in plane.shards:
        for record in shard.log.outcomes():
            if record.origin >= 0:
                outcomes[record.origin] = record.state
    return outcomes


# ----------------------------------------------------------------------
# repro.check checker factories
# ----------------------------------------------------------------------
def fencing_checker(plane: ControlPlane) -> Checker:
    """Mid-run legal: fence/epoch monotonicity and no duplicates."""

    def check(_now_ns: int) -> List[str]:
        problems: List[str] = []
        for shard in plane.shards:
            problems.extend(intent_log_violations(shard, final=False))
        return problems

    return check


def no_duplicate_routing_checker(plane: ControlPlane) -> Checker:
    """Mid-run legal: each origin lives in exactly one shard's log."""

    def check(_now_ns: int) -> List[str]:
        return no_duplicate_routing_violations(plane)

    return check


def exactly_once_checker(plane: ControlPlane) -> Checker:
    """End-of-run: no invocation lost, none duplicated, fencing holds.

    Only meaningful on a drained engine (an in-flight request is not a
    lost one); run it the way ``all_resolved_checker`` is run in
    :mod:`repro.resilience.checks`.
    """

    def check(_now_ns: int) -> List[str]:
        problems: List[str] = []
        for shard in plane.shards:
            problems.extend(intent_log_violations(shard, final=True))
        problems.extend(no_duplicate_routing_violations(plane))
        if plane.parked:
            problems.extend(
                f"frontend: origin {p.origin} still parked at end of run"
                for p in plane.parked
            )
        return problems

    return check
