"""Write-ahead logging for atomic commitment.

Fig. 7 of the paper shows the forced-write discipline of basic 2PC: the
participant force-writes a *prepared* record before voting and a *decision*
record before acknowledging; the coordinator force-writes the decision
before announcing it and appends a non-forced *end* record afterwards.  The
paper's log-complexity metric counts **forced** writes — 2n + 1 for both
2PC and 2PVC (Section VI-A).

For 2PVC, "a participant must forcibly log the set of (v_i, p_i) tuples
along with its vote and truth value" (Section V-C); the payload of
:class:`LogRecord` carries those.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.transactions.states import Decision


class LogRecordType(enum.Enum):
    """Record kinds used by 2PC / 2PVC logging."""

    BEGIN = "begin"
    PREPARED = "prepared"
    COMMIT = "commit"
    ABORT = "abort"
    END = "end"

    @classmethod
    def for_decision(cls, decision: Decision) -> "LogRecordType":
        """The record type a global decision is logged as."""
        return cls.COMMIT if decision is Decision.COMMIT else cls.ABORT


#: Decision record types.
DECISIONS = (LogRecordType.COMMIT, LogRecordType.ABORT)


@dataclass(frozen=True)
class LogRecord:
    """One WAL entry."""

    lsn: int
    record_type: LogRecordType
    txn_id: str
    forced: bool
    written_at: float
    payload: Tuple[Tuple[str, Any], ...] = ()

    def get(self, key: str, default: Any = None) -> Any:
        for name, value in self.payload:
            if name == key:
                return value
        return default


#: Record-count threshold at which streaming-mode WALs compact (see
#: ``WriteAheadLog(compact_at=...)``); chosen so compaction cost amortizes
#: to O(1) per write while the retained tail stays a few thousand records.
STREAMING_COMPACT_AT = 4096


class WriteAheadLog:
    """An append-only, crash-surviving log for one node.

    The log survives :meth:`repro.sim.network.Node.crash` by design — it
    models stable storage.  ``forced_writes`` is the paper's log-complexity
    counter.

    ``compact_at`` (None = never, the default) enables checkpoint-style
    truncation for unbounded streaming runs: whenever the retained record
    count reaches the threshold, records of transactions this node is
    provably done with are dropped — those with an END record (coordinator
    forgot after collecting acks), an ABORT decision (presumed abort: an
    inquiry gets the same answer with or without the record), or a COMMIT
    decision alongside a PREPARED record (a participant; nobody queries a
    participant's log).  A coordinator's COMMIT is retained until its END
    lands, so in-doubt inquiries still resolve correctly.  LSNs and the
    ``forced_writes`` / ``unforced_writes`` complexity counters are
    unaffected; only the record *list* is truncated.
    """

    def __init__(self, owner: str, compact_at: Optional[int] = None) -> None:
        self.owner = owner
        self._records: List[LogRecord] = []
        self._next_lsn = 0
        self.compact_at = compact_at
        self.forced_writes = 0
        self.unforced_writes = 0

    # -- writing ---------------------------------------------------------------

    def force(
        self, record_type: LogRecordType, txn_id: str, now: float, **payload: Any
    ) -> LogRecord:
        """Force-write a record (counted for log complexity)."""
        return self._write(record_type, txn_id, now, True, payload)

    def append(
        self, record_type: LogRecordType, txn_id: str, now: float, **payload: Any
    ) -> LogRecord:
        """Non-forced append (e.g. the coordinator's end record)."""
        return self._write(record_type, txn_id, now, False, payload)

    def _write(
        self,
        record_type: LogRecordType,
        txn_id: str,
        now: float,
        forced: bool,
        payload: Dict[str, Any],
    ) -> LogRecord:
        record = LogRecord(
            lsn=self._next_lsn,
            record_type=record_type,
            txn_id=txn_id,
            forced=forced,
            written_at=now,
            payload=tuple(sorted(payload.items())),
        )
        self._next_lsn += 1
        self._records.append(record)
        if forced:
            self.forced_writes += 1
        else:
            self.unforced_writes += 1
        if self.compact_at is not None and len(self._records) >= self.compact_at:
            self._compact()
        return record

    def _compact(self) -> None:
        """Drop records of transactions this node is provably done with."""
        ended = set()
        aborted = set()
        committed = set()
        prepared = set()
        for record in self._records:
            record_type = record.record_type
            if record_type is LogRecordType.END:
                ended.add(record.txn_id)
            elif record_type is LogRecordType.ABORT:
                aborted.add(record.txn_id)
            elif record_type is LogRecordType.COMMIT:
                committed.add(record.txn_id)
            elif record_type is LogRecordType.PREPARED:
                prepared.add(record.txn_id)
        forgettable = ended | aborted | (committed & prepared)
        if forgettable:
            self._records = [
                record for record in self._records if record.txn_id not in forgettable
            ]

    # -- reading ----------------------------------------------------------------

    def records(self) -> Tuple[LogRecord, ...]:
        return tuple(self._records)

    def records_for(self, txn_id: str) -> Tuple[LogRecord, ...]:
        return tuple(record for record in self._records if record.txn_id == txn_id)

    def last_record(self, txn_id: str) -> Optional[LogRecord]:
        for record in reversed(self._records):
            if record.txn_id == txn_id:
                return record
        return None

    def decision_for(self, txn_id: str) -> Optional[LogRecord]:
        """The commit/abort record for a transaction, if one was logged."""
        for record in reversed(self._records):
            if record.txn_id == txn_id and record.record_type in DECISIONS:
                return record
        return None

    def prepared_without_decision(self) -> Tuple[str, ...]:
        """Transactions that are *in doubt* after a crash.

        These logged a PREPARED record but no decision — on recovery the
        participant must ask the coordinator how they ended.
        """
        prepared: List[str] = []
        decided = set()
        ended = set()
        for record in self._records:
            if record.record_type is LogRecordType.PREPARED:
                if record.txn_id not in prepared:
                    prepared.append(record.txn_id)
            elif record.record_type in DECISIONS:
                decided.add(record.txn_id)
            elif record.record_type is LogRecordType.END:
                ended.add(record.txn_id)
        return tuple(txn for txn in prepared if txn not in decided and txn not in ended)
