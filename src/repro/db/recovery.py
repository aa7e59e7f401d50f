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
from typing import List, Tuple

from repro.db.wal import LogRecordType, WriteAheadLog


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
    """Classify every transaction appearing in the log, in first-write order.

    Follows the standard presumed-nothing 2PC recovery rules, which the
    paper inherits unchanged for 2PVC:

    * decision logged → re-enact the decision (redo commit / undo abort);
    * PREPARED but no decision → in doubt, ask the coordinator;
    * activity but no PREPARED record → presume abort (the participant
      never promised anything, so unilateral rollback is safe).
    """
    redo: List[str] = []
    undo: List[str] = []
    in_doubt: List[str] = []
    for txn_id in wal.transactions():
        kinds = {record.record_type for record in wal.records_for(txn_id)}
        if LogRecordType.END in kinds:
            continue
        decision = wal.decision_for(txn_id)
        if decision is not None and decision.record_type is LogRecordType.COMMIT:
            redo.append(txn_id)
        elif decision is None and LogRecordType.PREPARED in kinds:
            in_doubt.append(txn_id)
        else:
            undo.append(txn_id)  # decided abort, or presumed for unprepared work
    return RecoveryPlan(tuple(redo), tuple(undo), tuple(in_doubt))
