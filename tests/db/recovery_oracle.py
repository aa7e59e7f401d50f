"""Reference restart analysis for :func:`repro.db.recovery.analyze`.

The analysis as it was before it read the log transaction by transaction:
one scan of every record in LSN order into four dicts.  The property tests
in ``tests/db/test_wal_properties.py`` hold ``analyze`` to it.  Nothing
under ``src/`` imports this module.
"""

from __future__ import annotations

from typing import Dict, List

from repro.db.recovery import RecoveryPlan
from repro.db.wal import DECISIONS, LogRecordType


def analyze_by_scan(wal) -> RecoveryPlan:
    """Classify every transaction appearing in ``wal.records()``."""
    seen: Dict[str, None] = {}
    prepared: Dict[str, bool] = {}
    decision: Dict[str, LogRecordType] = {}
    ended: Dict[str, bool] = {}
    for record in wal.records():
        seen.setdefault(record.txn_id)
        if record.record_type is LogRecordType.PREPARED:
            prepared[record.txn_id] = True
        elif record.record_type in DECISIONS:
            decision[record.txn_id] = record.record_type
        elif record.record_type is LogRecordType.END:
            ended[record.txn_id] = True

    redo: List[str] = []
    undo: List[str] = []
    in_doubt: List[str] = []
    for txn_id in seen:
        if ended.get(txn_id):
            continue
        verdict = decision.get(txn_id)
        if verdict is LogRecordType.COMMIT:
            redo.append(txn_id)
        elif verdict is LogRecordType.ABORT:
            undo.append(txn_id)
        elif prepared.get(txn_id):
            in_doubt.append(txn_id)
        else:
            undo.append(txn_id)  # presumed abort for unprepared work
    return RecoveryPlan(tuple(redo), tuple(undo), tuple(in_doubt))
