"""Reference write-ahead log for the indexed :class:`repro.db.wal.WriteAheadLog`.

The log as it was before its per-transaction index: records in one list,
every per-transaction read a scan of it, nothing ever dropped.  The
property tests in ``tests/db/test_wal_properties.py`` hold the indexed log
to it.  Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.db.wal import DECISIONS, LogRecord, LogRecordType


class OracleWriteAheadLog:
    """A whole log: one list, scanned per read."""

    def __init__(self) -> None:
        self._records: List[LogRecord] = []
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
        self._records.append(record)
        if forced:
            self.forced_writes += 1
        else:
            self.unforced_writes += 1
        return record

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
