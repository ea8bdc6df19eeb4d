"""The append-only intent log: one gateway shard's only durable state.

Dirigent's control-plane design (PAPERS.md) keeps orchestration state
minimal and rebuildable; this is that idea made concrete.  A shard
journals exactly three intent kinds, write-ahead:

* ``admit``   — a request was accepted into the shard's ledger (carries
  everything a replacement needs to reconstruct it: function, priority,
  the original submit instant and absolute deadline);
* ``launch``  — an attempt was dispatched, under a fencing token drawn
  from the shard's monotone fence counter and stamped with the shard's
  current epoch;
* ``outcome`` — the request reached a terminal state (completed / shed
  / failed), recorded with the fence of the completing attempt.

Everything else a gateway holds — breakers, admission occupancy,
backoff timers, the in-flight table — is soft state, reconstructed
conservatively after a crash.  Recovery is therefore a pure function of
the log: the open requests (admit without outcome) are exactly the
orphans to re-dispatch.

The log survives the gateway incarnation it was written by: the shard
owns it and hands it to each replacement gateway, and the exactly-once
oracle and the ``repro.check`` invariants read it as the authoritative
account of what happened across crashes.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, NamedTuple, Optional

ADMIT = "admit"
LAUNCH = "launch"
OUTCOME = "outcome"


class IntentRecord(NamedTuple):
    """One journaled intent (plain data; crosses the worker pool).

    Immutable like the log it lives in.  A ``NamedTuple`` rather than a
    frozen dataclass: every request journals about three of these, and
    a frozen dataclass pays an ``object.__setattr__`` per field at
    construction (about 3.4 µs against 1.3 µs on CPython 3.11).
    """

    kind: str
    #: journaling instant (sim ns)
    t: int
    #: global request id at the frontend (the durable key)
    origin: int
    #: shard epoch current when the record was written
    epoch: int
    #: fencing token: the attempt's token for launch records and
    #: completed outcomes; 0 for admit and non-completed outcomes
    fence: int = 0
    function: str = ""
    priority: int = 0
    #: original frontend arrival (admit records)
    submit_ns: int = 0
    #: absolute retry deadline (admit records)
    deadline_ns: int = 0
    #: terminal state value (outcome records): completed / shed / failed
    state: str = ""
    #: submit -> completion, -1 when not completed (outcome records)
    latency_ns: int = -1
    #: dispatch target host (launch records)
    host: int = -1


class IntentLog:
    """Append-only record list with by-origin indexes.

    Appends are O(1); the indexes exist so recovery (open-request scan)
    and the invariant checkers never rescan the whole log per query.
    """

    __slots__ = ("shard_id", "records", "_admits", "_outcomes")

    def __init__(self, shard_id: int) -> None:
        self.shard_id = shard_id
        self.records: List[IntentRecord] = []
        self._admits: Dict[int, IntentRecord] = {}
        self._outcomes: Dict[int, IntentRecord] = {}

    # -- appends ---------------------------------------------------------
    def admit(
        self,
        t: int,
        origin: int,
        epoch: int,
        function: str,
        priority: int,
        submit_ns: int,
        deadline_ns: int,
    ) -> None:
        record = IntentRecord(
            kind=ADMIT, t=t, origin=origin, epoch=epoch,
            function=function, priority=priority,
            submit_ns=submit_ns, deadline_ns=deadline_ns,
        )
        self.records.append(record)
        # Last-write wins in the index; the duplicate itself stays in
        # ``records`` where the no-duplicate checker will flag it.
        self._admits[origin] = record

    def launch(
        self, t: int, origin: int, epoch: int, fence: int, host: int
    ) -> None:
        self.records.append(
            IntentRecord(
                kind=LAUNCH, t=t, origin=origin, epoch=epoch,
                fence=fence, host=host,
            )
        )

    def outcome(
        self,
        t: int,
        origin: int,
        epoch: int,
        state: str,
        fence: int,
        latency_ns: int,
    ) -> None:
        record = IntentRecord(
            kind=OUTCOME, t=t, origin=origin, epoch=epoch,
            fence=fence, state=state, latency_ns=latency_ns,
        )
        self.records.append(record)
        self._outcomes[origin] = record

    # -- queries ---------------------------------------------------------
    def admitted(self, origin: int) -> Optional[IntentRecord]:
        return self._admits.get(origin)

    def outcome_of(self, origin: int) -> Optional[IntentRecord]:
        return self._outcomes.get(origin)

    def open_admits(self) -> Iterator[IntentRecord]:
        """Admitted-but-unresolved requests, in admission order — the
        replacement shard's re-dispatch worklist."""
        outcomes = self._outcomes
        for record in self.records:
            if record.kind == ADMIT and record.origin not in outcomes:
                yield record

    def outcomes(self) -> Iterator[IntentRecord]:
        for record in self.records:
            if record.kind == OUTCOME:
                yield record

    def __len__(self) -> int:
        return len(self.records)

    def __repr__(self) -> str:
        return (
            f"IntentLog(shard={self.shard_id}, records={len(self.records)}, "
            f"admits={len(self._admits)}, outcomes={len(self._outcomes)})"
        )
