"""Property tests: the indexed write-ahead log answers like the list-and-scan one.

:class:`repro.db.wal.WriteAheadLog` keeps its records by LSN and by
transaction, and with ``forget`` on drops a transaction at the write that
finishes it at this node.  :class:`tests.db.wal_oracle.OracleWriteAheadLog`
is the log before that: one list, scanned per read, compacted in batches.
Over interleavings of protocol-legal per-transaction write sequences — a
coordinator's and a participant's, each cut at any point — every
transaction must read the same from both:

* a log that forgets nothing equals the oracle on ``records()``,
  ``records_for``, ``last_record``, ``decision_for``, LSNs and both write
  counters;
* a forgetting log retains of each transaction exactly the records
  written after the last write that finished it (an END, a decision or a
  NO vote, none of them kept), and answers like the oracle on them;
* on the paths every benchmark run takes — YES votes, every ack in — it
  equals the oracle compacting at every write: the rule is the one that
  compaction applied, evaluated at the write.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.db.wal import LogRecordType, WriteAheadLog
from tests.db.wal_oracle import OracleWriteAheadLog

BEGIN = LogRecordType.BEGIN
PREPARED = LogRecordType.PREPARED
COMMIT = LogRecordType.COMMIT
ABORT = LogRecordType.ABORT
END = LogRecordType.END

#: Complete write sequences of one transaction at one node, as
#: (record type, forced, keep).  Any prefix is a transaction in flight.
COMMON_SCRIPTS = (
    # coordinator: the decision (a COMMIT kept until the END), then END
    ((COMMIT, True, True), (END, False, False)),
    ((ABORT, False, False), (END, False, False)),
    ((BEGIN, True, False), (COMMIT, True, True), (END, False, False)),
    ((BEGIN, True, False), (ABORT, True, False), (END, False, False)),
    # participant: PREPARED, then the decision (and END after recovery)
    ((PREPARED, True, False), (COMMIT, True, False), (END, False, False)),
    ((PREPARED, True, False), (COMMIT, False, False)),
    ((PREPARED, True, False), (ABORT, True, False), (END, False, False)),
    ((PREPARED, True, False), (ABORT, False, False)),
    # participant told to abort before it prepared
    ((ABORT, False, False),),
)
SCRIPTS = COMMON_SCRIPTS + (
    # coordinator: a COMMIT some participant never acknowledged
    ((COMMIT, True, True), (END, False, True)),
    # participant: the coordinator's DECISION after the termination
    # protocol resolved the transaction, and a PREPARE after the ABORT
    ((PREPARED, True, False), (COMMIT, True, False), (END, False, False), (COMMIT, True, False)),
    ((ABORT, True, False), (PREPARED, True, False)),
)


@st.composite
def histories(draw, scripts=SCRIPTS, votes=("yes", "no")):
    """Interleaved writes of up to 8 transactions, each a script prefix."""
    queues = []
    for index in range(draw(st.integers(min_value=1, max_value=8))):
        script = draw(st.sampled_from(scripts))
        cut = draw(st.integers(min_value=0, max_value=len(script)))
        vote = draw(st.sampled_from(votes))
        queues.append([(f"t{index}", vote, *step) for step in script[:cut]])
    writes = []
    while any(queues):
        queue = draw(st.sampled_from([queue for queue in queues if queue]))
        writes.append(queue.pop(0))
    return writes


def replay(writes, *logs):
    for now, (txn_id, vote, record_type, forced, keep) in enumerate(writes):
        payload = {"vote": vote} if record_type is PREPARED else {}
        for log in logs:
            kept = {"keep": keep} if isinstance(log, WriteAheadLog) else {}
            write = log.force if forced else log.append
            write(record_type, txn_id, float(now), **kept, **payload)


def retained(writes):
    """LSNs a forgetting log holds: each transaction's writes after the last
    unkept END, decision or NO vote."""
    held = {}
    for lsn, (txn_id, vote, record_type, _, keep) in enumerate(writes):
        finishes = record_type in (END, COMMIT, ABORT) or (record_type is PREPARED and vote == "no")
        if finishes and not keep:
            held[txn_id] = []
        else:
            held.setdefault(txn_id, []).append(lsn)
    return sorted(lsn for lsns in held.values() for lsn in lsns)


def reads(log, txn_id):
    return (log.records_for(txn_id), log.last_record(txn_id), log.decision_for(txn_id))


def counters(log):
    return (log._next_lsn, log.forced_writes, log.unforced_writes)


@settings(max_examples=300, deadline=None)
@given(histories())
def test_a_log_that_forgets_nothing_equals_the_oracle(writes):
    log, oracle = WriteAheadLog("s1"), OracleWriteAheadLog("s1")
    replay(writes, log, oracle)
    assert log.records() == oracle.records()
    assert [record.lsn for record in log.records()] == list(range(len(writes)))
    assert counters(log) == counters(oracle)
    for txn_id in {write[0] for write in writes} | {"never-written"}:
        assert reads(log, txn_id) == reads(oracle, txn_id)


@settings(max_examples=300, deadline=None)
@given(histories())
def test_a_forgetting_log_keeps_exactly_the_transactions_not_done(writes):
    log, oracle = WriteAheadLog("s1", forget=True), OracleWriteAheadLog("s1")
    replay(writes, log, oracle)
    held = set(retained(writes))
    assert [record.lsn for record in log.records()] == sorted(held)
    assert log.records() == tuple(r for r in oracle.records() if r.lsn in held)
    assert counters(log) == counters(oracle)
    for txn_id in {write[0] for write in writes} | {"never-written"}:
        expected = [r for r in oracle.records_for(txn_id) if r.lsn in held]
        decisions = [r for r in expected if r.record_type in (COMMIT, ABORT)]
        assert log.records_for(txn_id) == tuple(expected)
        assert log.last_record(txn_id) == (expected[-1] if expected else None)
        assert log.decision_for(txn_id) == (decisions[-1] if decisions else None)


@settings(max_examples=300, deadline=None)
@given(histories(scripts=COMMON_SCRIPTS, votes=("yes",)))
def test_on_common_paths_forgetting_is_compaction_at_every_write(writes):
    log, compacting = WriteAheadLog("s1", forget=True), OracleWriteAheadLog("s1", compact_at=1)
    replay(writes, log, compacting)
    assert log.records() == compacting.records()


def test_a_kept_end_holds_the_commit_a_participant_may_still_ask_for():
    log = WriteAheadLog("tm", forget=True)
    log.force(COMMIT, "t1", 1.0, keep=True)
    log.append(END, "t1", 2.0, keep=True)
    log.force(COMMIT, "t2", 3.0, keep=True)
    log.append(END, "t2", 4.0)
    assert log.decision_for("t1").record_type is COMMIT
    assert log.decision_for("t2") is None
    assert [record.txn_id for record in log.records()] == ["t1", "t1"]
