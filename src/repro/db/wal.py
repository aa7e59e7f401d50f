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
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

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


@dataclass(frozen=True, slots=True)
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


def forgets_finished(traced: bool, rpc_max_retries: int) -> bool:
    """Whether a node's log forgets the transactions it is done with: only
    when the run is untraced (a traced run's WALs are conformance evidence)
    and no coordinator retries (see :class:`WriteAheadLog`)."""
    return not (traced or rpc_max_retries)


class WriteAheadLog:
    """An append-only, crash-surviving log for one node.

    The log survives :meth:`repro.sim.network.Node.crash` by design — it
    models stable storage.  ``forced_writes`` is the paper's log-complexity
    counter.

    Records are kept in LSN order and indexed by transaction.  Every write
    is stored; the protocol says when its node is done with a transaction
    and calls :meth:`forget` there.  Only a log made with ``forgets`` drops
    anything, and a server's first crash clears the flag for good
    (:meth:`repro.cloud.server.CloudServer.on_crash`): what it forgot was
    finished, and from then on it keeps whatever recovery may read.
    Forgetting is sound only while no coordinator retries
    (:func:`forgets_finished`; docs/correctness.md).  LSNs and the write
    counters count every write either way.
    """

    def __init__(self, forgets: bool = False) -> None:
        self.forgets = forgets
        self._by_lsn: Dict[int, LogRecord] = {}
        self._by_txn: Dict[str, List[LogRecord]] = {}
        self._next_lsn = 0
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
        if forced:
            self.forced_writes += 1
        else:
            self.unforced_writes += 1
        self._by_lsn[record.lsn] = record
        self._by_txn.setdefault(txn_id, []).append(record)
        return record

    def forget(self, txn_id: str) -> None:
        """The node is done with ``txn_id``: drop its records if this log forgets."""
        if self.forgets:
            for record in self._by_txn.pop(txn_id, ()):
                del self._by_lsn[record.lsn]

    # -- reading ----------------------------------------------------------------

    def records(self) -> Tuple[LogRecord, ...]:
        return tuple(self._by_lsn.values())

    def transactions(self) -> Iterator[str]:
        """Every transaction with a record here, in first-write order."""
        return iter(self._by_txn)

    def records_for(self, txn_id: str) -> Tuple[LogRecord, ...]:
        return tuple(self._by_txn.get(txn_id, ()))

    def last_record(self, txn_id: str) -> Optional[LogRecord]:
        records = self._by_txn.get(txn_id)
        return records[-1] if records else None

    def decision_for(self, txn_id: str) -> Optional[LogRecord]:
        """The commit/abort record for a transaction, if one was logged."""
        records = reversed(self._by_txn.get(txn_id, ()))
        return next((record for record in records if record.record_type in DECISIONS), None)
