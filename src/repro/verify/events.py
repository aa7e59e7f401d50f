"""Unified event model for the trace sanitizer.

A finished run leaves three kinds of evidence behind: the simulation trace
(:mod:`repro.sim.tracing` — messages, proof evaluations, lock grants,
transaction lifecycle), every node's write-ahead log, and every storage
engine's access log.  :func:`collect_run` folds all of them into one
ordered list of :class:`VerifyEvent` records — a :class:`RunRecord` — that
the conformance checks in :mod:`repro.verify.conformance` consume.

The indirection matters for two reasons: violations can point at concrete
``event_id``\\ s regardless of which artifact the evidence came from, and
the mutation test suite can corrupt a :class:`RunRecord` (drop a vote,
backdate a proof, swap two lock events) without touching the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Any, Dict, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from repro.sim.tracing import Pairs, pair_value

#: ``VerifyEvent.source`` values.
SOURCE_TRACE = "trace"
SOURCE_WAL = "wal"
SOURCE_STORAGE = "storage"

#: Synthetic categories for non-trace evidence.
CAT_WAL = "wal"
CAT_STORAGE = "storage"

_UNSET = object()


class VerifyEvent(NamedTuple):
    """One piece of recorded evidence, normalized for checking.

    ``data`` is a key-sorted tuple of ``(key, value)`` pairs — the shape of
    :attr:`repro.sim.tracing.TraceRecord.details`, and for trace evidence
    the very same tuple — so events hash and compare structurally.
    """

    event_id: int
    time: Optional[float]
    source: str
    category: str
    data: Pairs

    def get(self, key: str, default: Any = None) -> Any:
        """Value of one data field, or ``default``."""
        return pair_value(self.data, key, default)

    def with_changes(self, time: Any = _UNSET, **data_changes: Any) -> "VerifyEvent":
        """A copy with ``time`` and/or data fields replaced (for mutations)."""
        mapping: Dict[str, Any] = dict(self.data)
        mapping.update(data_changes)
        data = tuple(sorted(mapping.items()))
        return self._replace(time=self.time if time is _UNSET else time, data=data)

    def describe(self) -> str:
        """One-line rendering used in violation slices."""
        stamp = "--" if self.time is None else f"{self.time:10.3f}"
        fields = " ".join(f"{key}={value!r}" for key, value in self.data)
        return f"[{self.event_id:5d}] {stamp} {self.category:<12} {fields}"


@dataclass(frozen=True)
class TxnMeta:
    """Ground-truth metadata for one finished transaction."""

    txn_id: str
    approach: str
    consistency: str
    committed: bool


@dataclass
class RunRecord:  # verify: ignore[DET004] -- not a traced value: mutation tests corrupt events in place
    """Everything the conformance checks need about one finished run.

    Mutable on purpose: the mutation tests corrupt ``events`` in place and
    re-run the checker.
    """

    events: List[VerifyEvent]
    transactions: Dict[str, TxnMeta]
    #: Publication timeline per admin domain: ``(time, version)`` pairs in
    #: publication order (from the master service's authoritative log).
    version_timeline: Dict[str, Tuple[Tuple[float, int], ...]]
    #: Node names acting as coordinators (transaction managers).
    coordinators: Tuple[str, ...] = ()
    #: Node names acting as participants (cloud servers).
    servers: Tuple[str, ...] = ()

    # -- queries --------------------------------------------------------------

    def select(self, category: Optional[str] = None, **filters: Any) -> List[VerifyEvent]:
        """Events matching a category and exact data-field values."""
        selected = []
        for event in self.events:
            if category is not None and event.category != category:
                continue
            if all(event.get(key) == value for key, value in filters.items()):
                selected.append(event)
        return selected

    def by_id(self, event_id: int) -> Optional[VerifyEvent]:
        for event in self.events:
            if event.event_id == event_id:
                return event
        return None

    def version_at(self, admin: str, time: float) -> Optional[int]:
        """The master's latest published version of ``admin`` at ``time``."""
        version: Optional[int] = None
        for published_at, published_version in self.version_timeline.get(admin, ()):
            if published_at <= time:
                version = published_version
            else:
                break
        return version

    # -- mutation helpers (used by the corruption tests) ----------------------

    def drop(self, events: Iterable[VerifyEvent]) -> None:
        """Remove events from the record."""
        doomed = {event.event_id for event in events}
        self.events = [event for event in self.events if event.event_id not in doomed]

    def rewrite(self, event: VerifyEvent, time: Any = _UNSET, **data_changes: Any) -> VerifyEvent:
        """Replace one event in place with a modified copy; returns the copy."""
        updated = event.with_changes(time=time, **data_changes)
        self.events = [
            updated if existing.event_id == event.event_id else existing
            for existing in self.events
        ]
        return updated

    def swap_times(self, first: VerifyEvent, second: VerifyEvent) -> None:
        """Exchange the timestamps of two events (keeps list positions)."""
        first_time, second_time = first.time, second.time
        self.rewrite(first, time=second_time)
        self.rewrite(second, time=first_time)


def _normalize_versions(raw: Any) -> Dict[str, int]:
    """WAL ``versions`` payloads keyed by PolicyId or str → keyed by str."""
    versions: Dict[str, int] = {}
    if isinstance(raw, Mapping):
        for key, value in raw.items():
            versions[getattr(key, "admin", key)] = value
    return versions


def collect_run(cluster: Any, outcomes: Optional[Sequence[Any]] = None) -> RunRecord:
    """Build a :class:`RunRecord` from a finished cluster.

    ``outcomes`` defaults to every outcome recorded by the cluster's
    transaction managers.  Only *finished* transactions (those with an
    outcome) are checked — in-flight transactions have incomplete
    histories by construction.

    Event order: the timed evidence — the trace in recording order, then
    each node's WAL (servers, then coordinators) — sorted *stably* by time,
    so evidence of one instant keeps that order; then the storage accesses,
    which carry no timestamp, server by server.  ``event_id`` is the
    position in that list (``tests/verify/collect_oracle.py`` is the
    reference).
    """
    if outcomes is None:
        outcomes = [outcome for tm in cluster.tms for outcome in tm.outcomes]

    evidence: List[Tuple[Optional[float], str, str, Pairs]] = [
        (time, SOURCE_TRACE, category, details) for time, category, details in cluster.tracer
    ]
    for node in list(cluster.servers.values()) + list(cluster.tms):
        for log_record in node.wal.records():
            data: Dict[str, Any] = {
                "node": node.name,
                "record_type": log_record.record_type.value,
                "txn_id": log_record.txn_id,
                "forced": log_record.forced,
                "lsn": log_record.lsn,
            }
            for key, value in log_record.payload:
                if key == "versions":
                    value = _normalize_versions(value)
                data.setdefault(key, value)
            evidence.append(
                (log_record.written_at, SOURCE_WAL, CAT_WAL, tuple(sorted(data.items())))
            )
    evidence.sort(key=itemgetter(0))

    for server in cluster.servers.values():
        for access in server.storage.access_log:
            # Storage accesses carry no timestamp — only per-engine order.
            pairs = (
                ("key", access.key),
                ("kind", access.kind.value),
                ("sequence", access.sequence),
                ("server", server.name),
                ("txn_id", access.txn_id),
            )
            evidence.append((None, SOURCE_STORAGE, CAT_STORAGE, pairs))

    events = [
        VerifyEvent(event_id, time, source, category, data)
        for event_id, (time, source, category, data) in enumerate(evidence)
    ]

    transactions = {
        outcome.txn_id: TxnMeta(
            txn_id=outcome.txn_id,
            approach=outcome.approach,
            consistency=outcome.consistency,
            committed=outcome.committed,
        )
        for outcome in outcomes
    }

    version_timeline = {
        admin: tuple(log) for admin, log in cluster.master.version_log.items()
    }

    return RunRecord(
        events=events,
        transactions=transactions,
        version_timeline=version_timeline,
        coordinators=tuple(tm.name for tm in cluster.tms),
        servers=tuple(cluster.servers),
    )


# Re-exported for checkers that need default-construction convenience.
__all__ = [
    "VerifyEvent",
    "TxnMeta",
    "RunRecord",
    "collect_run",
    "SOURCE_TRACE",
    "SOURCE_WAL",
    "SOURCE_STORAGE",
    "CAT_WAL",
    "CAT_STORAGE",
]
