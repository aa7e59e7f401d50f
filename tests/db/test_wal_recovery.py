"""Unit tests for the write-ahead log and recovery analysis."""

import pytest

from repro.db.recovery import analyze
from repro.db.wal import LogRecordType, WriteAheadLog


class CountingId(str):
    """A transaction id that counts the equality tests made against it."""

    comparisons = 0
    __hash__ = str.__hash__

    def __eq__(self, other):
        CountingId.comparisons += 1
        return str.__eq__(self, other)


@pytest.fixture
def wal():
    return WriteAheadLog()


class TestWriting:
    def test_force_counts_forced_writes(self, wal):
        wal.force(LogRecordType.PREPARED, "t1", now=1.0)
        wal.force(LogRecordType.COMMIT, "t1", now=2.0)
        wal.append(LogRecordType.END, "t1", now=3.0)
        assert wal.forced_writes == 2
        assert wal.unforced_writes == 1

    def test_lsns_are_sequential(self, wal):
        records = [
            wal.force(LogRecordType.PREPARED, "t1", now=1.0),
            wal.append(LogRecordType.END, "t1", now=2.0),
        ]
        assert [record.lsn for record in records] == [0, 1]

    def test_payload_round_trip(self, wal):
        record = wal.force(
            LogRecordType.PREPARED, "t1", now=1.0, vote="yes", versions={"app": 3}
        )
        assert record.get("vote") == "yes"
        assert record.get("versions") == {"app": 3}
        assert record.get("missing", "dflt") == "dflt"


class TestReading:
    def test_records_for_filters_by_txn(self, wal):
        wal.force(LogRecordType.PREPARED, "t1", now=1.0)
        wal.force(LogRecordType.PREPARED, "t2", now=1.0)
        assert [r.txn_id for r in wal.records_for("t1")] == ["t1"]

    def test_last_record(self, wal):
        wal.force(LogRecordType.PREPARED, "t1", now=1.0)
        wal.force(LogRecordType.COMMIT, "t1", now=2.0)
        assert wal.last_record("t1").record_type is LogRecordType.COMMIT
        assert wal.last_record("ghost") is None

    def test_decision_for(self, wal):
        wal.force(LogRecordType.PREPARED, "t1", now=1.0)
        assert wal.decision_for("t1") is None
        wal.force(LogRecordType.ABORT, "t1", now=2.0)
        assert wal.decision_for("t1").record_type is LogRecordType.ABORT

    def test_prepared_without_decision(self, wal):
        wal.force(LogRecordType.PREPARED, "t1", now=1.0)
        wal.force(LogRecordType.PREPARED, "t2", now=1.0)
        wal.force(LogRecordType.COMMIT, "t2", now=2.0)
        assert analyze(wal).in_doubt == ("t1",)


class TestRecoveryAnalysis:
    def test_clean_log(self, wal):
        wal.force(LogRecordType.PREPARED, "t1", now=1.0)
        wal.force(LogRecordType.COMMIT, "t1", now=2.0)
        wal.append(LogRecordType.END, "t1", now=3.0)
        plan = analyze(wal)
        assert plan.is_clean

    def test_committed_without_end_is_redone(self, wal):
        wal.force(LogRecordType.PREPARED, "t1", now=1.0)
        wal.force(LogRecordType.COMMIT, "t1", now=2.0)
        plan = analyze(wal)
        assert plan.redo_commits == ("t1",)

    def test_aborted_is_undone(self, wal):
        wal.force(LogRecordType.PREPARED, "t1", now=1.0)
        wal.force(LogRecordType.ABORT, "t1", now=2.0)
        assert analyze(wal).undo_aborts == ("t1",)

    def test_prepared_no_decision_is_in_doubt(self, wal):
        wal.force(LogRecordType.PREPARED, "t1", now=1.0)
        assert analyze(wal).in_doubt == ("t1",)

    def test_unprepared_activity_presumed_abort(self, wal):
        wal.append(LogRecordType.BEGIN, "t1", now=1.0)
        assert analyze(wal).undo_aborts == ("t1",)

    def test_mixed_log_classifies_each(self, wal):
        wal.force(LogRecordType.PREPARED, "commit-me", now=1.0)
        wal.force(LogRecordType.COMMIT, "commit-me", now=2.0)
        wal.force(LogRecordType.PREPARED, "doubt-me", now=1.0)
        wal.force(LogRecordType.PREPARED, "abort-me", now=1.0)
        wal.force(LogRecordType.ABORT, "abort-me", now=2.0)
        plan = analyze(wal)
        assert plan.redo_commits == ("commit-me",)
        assert plan.in_doubt == ("doubt-me",)
        assert plan.undo_aborts == ("abort-me",)

    def test_empty_log_is_clean(self, wal):
        assert analyze(wal).is_clean

    def test_in_doubt_keeps_first_seen_order(self, wal):
        wal.append(LogRecordType.BEGIN, "late", now=1.0)
        wal.force(LogRecordType.PREPARED, "early", now=2.0)
        wal.force(LogRecordType.PREPARED, "late", now=3.0)
        assert analyze(wal).in_doubt == ("late", "early")

    def test_analysis_is_linear_in_log_length(self, wal):
        """A constant number of equality tests per record, not one per
        transaction seen before it."""
        n = 400
        for index in range(n):
            # A fresh id object per record, as records built from messages hold.
            wal.append(LogRecordType.BEGIN, CountingId(f"t{index}"), now=1.0)
            wal.force(LogRecordType.PREPARED, CountingId(f"t{index}"), now=2.0)
        CountingId.comparisons = 0
        plan = analyze(wal)
        assert plan.in_doubt == tuple(f"t{index}" for index in range(n))
        assert CountingId.comparisons <= 4 * 2 * n
