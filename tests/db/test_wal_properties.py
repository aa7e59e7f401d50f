"""Property tests: the indexed write-ahead log answers like the list-and-scan one.

:class:`repro.db.wal.WriteAheadLog` keeps every record it writes, by LSN
and by transaction, and drops a transaction only when the protocol calls
``forget`` on a log made with ``forgets``.
:class:`tests.db.wal_oracle.OracleWriteAheadLog` is the log before the
index: one list, scanned per read, nothing dropped.  Over interleavings of
per-transaction write sequences — a coordinator's and a participant's, with
``forget`` called where the protocol calls it, each cut at any point —
every transaction must read the same from both:

* a whole log equals the oracle on ``records()``, ``transactions()``,
  ``records_for``, ``last_record``, ``decision_for``, LSNs and both write
  counters;
* ``forget`` on a whole log changes nothing;
* a forgetting log equals the oracle minus each transaction forgotten since
  its last write, and its LSNs and counters count every write;
* restart analysis (:func:`repro.db.recovery.analyze`) classifies every
  log, forgetting or whole, exactly as the scan it replaced
  (:func:`tests.db.recovery_oracle.analyze_by_scan`).
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.db.recovery import analyze
from repro.db.wal import LogRecordType, WriteAheadLog
from tests.db.recovery_oracle import analyze_by_scan
from tests.db.wal_oracle import OracleWriteAheadLog

BEGIN = LogRecordType.BEGIN
PREPARED = LogRecordType.PREPARED
COMMIT = LogRecordType.COMMIT
ABORT = LogRecordType.ABORT
END = LogRecordType.END
#: A ``forget`` call, where the protocol makes one.
FORGET = "forget"

#: Complete write sequences of one transaction at one node, as
#: (record type, forced) and ``FORGET`` steps.  Any prefix is a
#: transaction in flight.
SCRIPTS = (
    # coordinator: a COMMIT every participant acknowledged, and one some
    # participant did not (kept: that participant may still ask)
    ((COMMIT, True), (END, False), FORGET),
    ((COMMIT, True), (END, False)),
    ((BEGIN, True), (COMMIT, True), (END, False), FORGET),
    # coordinator: an ABORT, forgotten as it is logged and again at its END
    ((ABORT, False), FORGET, (END, False), FORGET),
    ((BEGIN, True), (ABORT, True), FORGET, (END, False), FORGET),
    # participant: PREPARED, then the decision
    ((PREPARED, True), (COMMIT, True), FORGET),
    ((PREPARED, True), (COMMIT, False), FORGET),
    ((PREPARED, True), (ABORT, True), FORGET),
    # participant: a NO vote, then the ABORT
    ((PREPARED, True), FORGET, (ABORT, False), FORGET),
    # participant told to abort before it prepared, and a PREPARE that
    # overtook that ABORT
    ((ABORT, False), FORGET),
    ((ABORT, False), FORGET, (PREPARED, True), FORGET),
    # restarted participant: resolved in doubt, then the original DECISION
    ((PREPARED, True), (COMMIT, True), (END, False), (COMMIT, True)),
)


@st.composite
def histories(draw, forgets=True):
    """Interleaved steps of up to 8 transactions, each a script prefix, as
    (txn id, step, vote); ``forgets=False`` leaves the forget calls out."""
    queues = []
    for index in range(draw(st.integers(min_value=1, max_value=8))):
        script = draw(st.sampled_from(SCRIPTS))
        cut = draw(st.integers(min_value=0, max_value=len(script)))
        vote = draw(st.sampled_from(("yes", "no")))
        steps = [step for step in script[:cut] if forgets or step != FORGET]
        queues.append([(f"t{index}", step, vote) for step in steps])
    history = []
    while any(queues):
        queue = draw(st.sampled_from([queue for queue in queues if queue]))
        history.append(queue.pop(0))
    return history


def replay(history, *logs):
    """Write ``history`` to every log; only a ``WriteAheadLog`` is told to forget."""
    now = 0
    for txn_id, step, vote in history:
        if step == FORGET:
            for log in logs:
                if isinstance(log, WriteAheadLog):
                    log.forget(txn_id)
            continue
        record_type, forced = step
        payload = {"vote": vote} if record_type is PREPARED else {}
        for log in logs:
            write = log.force if forced else log.append
            write(record_type, txn_id, float(now), **payload)
        now += 1


def retained(history):
    """LSNs a forgetting log holds: each transaction's writes since its last forget."""
    held, lsn = {}, 0
    for txn_id, step, _ in history:
        if step == FORGET:
            held.pop(txn_id, None)
        else:
            held.setdefault(txn_id, []).append(lsn)
            lsn += 1
    return {lsn for lsns in held.values() for lsn in lsns}


def first_written(records):
    """Transaction ids in the order of their first record."""
    return list(dict.fromkeys(record.txn_id for record in records))


def reads(log, txn_id):
    return (log.records_for(txn_id), log.last_record(txn_id), log.decision_for(txn_id))


def counters(log):
    return (log._next_lsn, log.forced_writes, log.unforced_writes)


def txn_ids(history):
    return sorted({txn_id for txn_id, _, _ in history} | {"never-written"})


@settings(max_examples=300, deadline=None)
@given(histories(forgets=False))
def test_a_log_that_forgets_nothing_equals_the_oracle(history):
    log, oracle = WriteAheadLog(), OracleWriteAheadLog()
    replay(history, log, oracle)
    assert log.records() == oracle.records()
    assert [record.lsn for record in log.records()] == list(range(len(history)))
    assert list(log.transactions()) == first_written(oracle.records())
    assert counters(log) == counters(oracle)
    for txn_id in txn_ids(history):
        assert reads(log, txn_id) == reads(oracle, txn_id)


@settings(max_examples=300, deadline=None)
@given(histories())
def test_forget_on_a_whole_log_is_a_no_op(history):
    told, untold = WriteAheadLog(), WriteAheadLog()
    replay(history, told)
    replay([step for step in history if step[1] != FORGET], untold)
    assert told.records() == untold.records()
    assert list(told.transactions()) == list(untold.transactions())
    assert counters(told) == counters(untold)
    for txn_id in txn_ids(history):
        assert reads(told, txn_id) == reads(untold, txn_id)


@settings(max_examples=300, deadline=None)
@given(histories())
def test_a_forgetting_log_keeps_exactly_the_transactions_not_done(history):
    log, oracle = WriteAheadLog(forgets=True), OracleWriteAheadLog()
    replay(history, log, oracle)
    held = retained(history)
    expected = tuple(record for record in oracle.records() if record.lsn in held)
    assert log.records() == expected
    assert list(log.transactions()) == first_written(expected)
    assert counters(log) == counters(oracle)
    for txn_id in txn_ids(history):
        kept = [record for record in expected if record.txn_id == txn_id]
        decisions = [record for record in kept if record.record_type in (COMMIT, ABORT)]
        assert log.records_for(txn_id) == tuple(kept)
        assert log.last_record(txn_id) == (kept[-1] if kept else None)
        assert log.decision_for(txn_id) == (decisions[-1] if decisions else None)


@settings(max_examples=300, deadline=None)
@given(histories(), st.booleans(), st.booleans())
def test_restart_analysis_equals_the_scan(history, forgets, told):
    log = WriteAheadLog(forgets=forgets)
    replay(history if told else [step for step in history if step[1] != FORGET], log)
    assert analyze(log) == analyze_by_scan(log)


def test_a_transaction_written_after_it_was_forgotten_is_analysed_from_then_on():
    log = WriteAheadLog(forgets=True)
    log.force(ABORT, "t1", 1.0)
    log.forget("t1")
    log.force(PREPARED, "t2", 2.0, vote="yes")
    log.force(PREPARED, "t1", 3.0, vote="no")  # a PREPARE that overtook the ABORT
    assert list(log.transactions()) == ["t2", "t1"]
    plan = analyze(log)
    assert (plan.in_doubt, plan.undo_aborts) == (("t2", "t1"), ())
    assert plan == analyze_by_scan(log)
