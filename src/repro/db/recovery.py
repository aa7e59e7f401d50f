"""Crash-recovery analysis over the write-ahead log.

"The resilience of 2PVC to system and communication failures can be
achieved in the same manner as 2PC by recording the progress of the
protocol in the logs of the TM and participant" (Section V-C).  This module
implements the log-analysis half: given a WAL, classify every transaction
into *committed*, *aborted*, or *in doubt*.  The network half (asking the
coordinator how an in-doubt transaction ended) lives in the cloud-server
and TM message handlers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.db.wal import DECISIONS, LogRecordType, WriteAheadLog


@dataclass(frozen=True)
class RecoveryPlan:
    """What a restarting node must do for each transaction it saw."""

    #: Transactions whose decision is logged as COMMIT but not yet ENDed:
    #: their buffered writes must be (re)applied idempotently.
    redo_commits: Tuple[str, ...]
    #: Transactions decided ABORT (or never prepared): discard workspaces.
    undo_aborts: Tuple[str, ...]
    #: Prepared transactions with no decision: must ask the coordinator.
    in_doubt: Tuple[str, ...]

    @property
    def is_clean(self) -> bool:
        """True when nothing needs doing (all transactions ended)."""
        return not (self.redo_commits or self.undo_aborts or self.in_doubt)


def analyze(wal: WriteAheadLog) -> RecoveryPlan:
    """Classify every transaction appearing in the log.

    Follows the standard presumed-nothing 2PC recovery rules, which the
    paper inherits unchanged for 2PVC:

    * decision logged → re-enact the decision (redo commit / undo abort);
    * PREPARED but no decision → in doubt, ask the coordinator;
    * activity but no PREPARED record → presume abort (the participant
      never promised anything, so unilateral rollback is safe).
    """
    # Every transaction in first-seen order; a dict, so membership is O(1).
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
