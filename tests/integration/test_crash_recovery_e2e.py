"""End-to-end crash recovery under the chaos nemesis.

The sharpest window in 2PVC: a participant crashes *after* forcing its
PREPARED record and sending its vote, but *before* the coordinator's
decision reaches it.  The node is in doubt — it must neither forget the
transaction (the vote is out; the coordinator may commit) nor guess.  On
restart, WAL recovery runs the termination protocol (DECISION_REQUEST to
the coordinator) and resolves the transaction.  These tests kill the
participant at exactly that instant with a send-triggered crash fault and
check that every approach recovers to a verify-clean history.
"""

import pytest

from repro.chaos.fuzz import FuzzCase, run_case
from repro.chaos.nemesis import Nemesis
from repro.chaos.plan import FaultPlan, FaultSpec
from repro.cloud import messages as msg
from repro.cloud.config import CloudConfig
from repro.core.approaches import PAPER_APPROACHES
from repro.core.consistency import ConsistencyLevel
from repro.db.locks import LockMode
from repro.db.wal import LogRecordType
from repro.sim.network import FixedLatency
from repro.transactions.transaction import Query, Transaction
from repro.workloads.testbed import build_cluster

VIEW = ConsistencyLevel.VIEW

#: Kill s2 the instant it sends its first 2PVC vote — i.e. right between
#: the PREPARED force and the decision — and restart it 25 time units
#: later, well after the coordinator has decided.
VOTE_CRASH = FaultPlan(
    (FaultSpec("crash", at=0.0, node="s2", on_kind=msg.VOTE_REPLY, down_for=25.0),),
    label="vote-crash",
)


class TestVoteWindowCrash:
    @pytest.mark.parametrize("approach", PAPER_APPROACHES)
    def test_in_doubt_participant_recovers_clean(self, approach):
        case = FuzzCase(
            seed=5, plan=VOTE_CRASH, approach=approach, n_transactions=4
        )
        result = run_case(case)
        assert result.ok, f"{approach}: {result.violation_codes}"
        # The case must actually exercise the window: some work finished.
        assert result.committed + result.aborted == case.n_transactions

    def test_recovery_resolves_in_doubt_via_termination_protocol(self):
        """Directed replay of the same window with counter-level assertions."""
        config = CloudConfig(
            latency=FixedLatency(1.0), request_timeout=15.0, rpc_max_retries=2
        )
        cluster = build_cluster(n_servers=3, seed=5, config=config)
        nemesis = Nemesis(cluster, VOTE_CRASH)
        nemesis.install()
        credential = cluster.issue_role_credential("alice")
        txn = Transaction(
            "t-doubt",
            "alice",
            queries=(
                Query.write("t-doubt-q1", deltas={"s1/x1": -5}),
                Query.write("t-doubt-q2", deltas={"s2/x1": -5}),
                Query.write("t-doubt-q3", deltas={"s3/x1": -5}),
            ),
            credentials=(credential,),
        )
        cluster.submit(txn, "deferred", VIEW)
        cluster.run()
        nemesis.recover_all()
        cluster.run()

        faults = cluster.metrics.faults
        assert faults.crashes >= 1
        assert faults.recoveries >= 1
        # The restarted node found the PREPARED-without-decision record and
        # resolved it by asking the coordinator.
        assert faults.in_doubt_resolved >= 1
        server = cluster.server("s2")
        decision = server.wal.decision_for("t-doubt")
        assert decision is not None
        tm_decision = cluster.tm.wal.decision_for("t-doubt")
        assert tm_decision is not None
        assert decision.record_type is tm_decision.record_type
        # Atomicity held: either all three writes applied, or none did.
        values = {
            name: cluster.server(name).storage.committed_value(f"{name}/x1")
            for name in ("s1", "s2", "s3")
        }
        assert len(set(values.values())) == 1, values
        report = cluster.verify()
        assert report.ok, report.violations

    @pytest.mark.parametrize(
        "down_for, decision_delay, request_delay",
        [
            (25.0, 0.0, 0.0),  # restarts after the DECISION was dropped: asks
            (0.5, 0.0, 0.0),  # restarts before the DECISION: it arrives in doubt
            (2.5, 5.0, 0.0),  # asks, resolves, then the DECISION arrives
            # The DECISION arrives in doubt and is acknowledged before the
            # coordinator hears the question: a forgetting coordinator has
            # dropped the COMMIT by then and answers abort.
            (0.5, 0.0, 5.0),
        ],
    )
    def test_an_untraced_run_resolves_the_window_to_the_same_outcome(
        self, down_for, decision_delay, request_delay
    ):
        """Untraced and without retries every WAL forgets what its node has
        finished, until the node's first crash.  Whichever of the
        coordinator's DECISION and its answer to the termination protocol
        reaches the restarted participant first, the run must end as the
        traced one does: the same values and the same forced writes on every
        node, and the same log on the participant that crashed.  The
        coordinator must keep the COMMIT the participant did not
        acknowledge."""
        traced = _vote_window(True, down_for, decision_delay, request_delay)
        untraced = _vote_window(False, down_for, decision_delay, request_delay)

        assert untraced.metrics.faults.in_doubt_resolved == 1
        assert _values(untraced) == _values(traced) == {"s1": 95.0, "s2": 95.0, "s3": 95.0}
        assert _forced(untraced) == _forced(traced)
        # s2 had forgotten nothing when it crashed (its one transaction was
        # in flight), and keeps every record from its crash on.
        s2 = untraced.server("s2").wal
        assert not s2.forgets
        assert s2.records() == traced.server("s2").wal.records()
        # The coordinator keeps a COMMIT whose ack timed out for good: it
        # cannot tell whether that participant will still ask for it.
        kept = [LogRecordType.COMMIT, LogRecordType.END] if down_for > 15.0 else []
        others = _retained(untraced, ("s1", "s3"))
        assert [record.record_type for record in others] == kept


class TestCrashEndsForgetting:
    def test_a_restarted_participant_keeps_every_later_record(self):
        """A participant that forgot its finished transactions, then crashed
        and restarted, finds nothing to recover and keeps every record it
        writes from then on; a participant that never crashed still forgets."""
        config = CloudConfig(latency=FixedLatency(1.0), request_timeout=15.0)
        cluster = build_cluster(n_servers=3, seed=5, config=config, trace=False)
        first = cluster.submit(_three_server_write(cluster, "t-before"), "deferred", VIEW)
        cluster.run()
        s2 = cluster.server("s2")
        assert first.value.committed and s2.wal.records() == ()
        s2.crash()
        s2.recover()
        written = s2.wal.forced_writes + s2.wal.unforced_writes
        second = cluster.submit(_three_server_write(cluster, "t-after"), "deferred", VIEW)
        cluster.run()
        assert second.value.committed
        assert _values(cluster) == {"s1": 90.0, "s2": 90.0, "s3": 90.0}
        later = s2.wal.forced_writes + s2.wal.unforced_writes - written
        kinds = [record.record_type for record in s2.wal.records_for("t-after")]
        assert later == len(s2.wal.records()) == len(kinds) > 0
        assert kinds == [LogRecordType.PREPARED, LogRecordType.COMMIT]
        assert _retained(cluster, ("s1", "s3")) == []


class TestLatePrepare:
    """Without per-link FIFO a PREPARE can reach a participant after the
    ABORT the coordinator sent when the vote timed out, with no retry."""

    def _run(self, trace):
        config = CloudConfig(latency=FixedLatency(1.0), request_timeout=15.0)
        cluster = build_cluster(n_servers=3, seed=5, config=config, trace=trace)
        _Delay(cluster.network, msg.PREPARE_TO_COMMIT, "s2", 40.0)
        outcome = cluster.submit(_three_server_write(cluster, "t-late"), "deferred", VIEW)
        cluster.run()
        assert not outcome.value.committed
        assert _values(cluster) == {"s1": 100.0, "s2": 100.0, "s3": 100.0}
        return cluster

    def test_a_forgetting_participant_votes_no_and_keeps_nothing(self):
        """A traced participant still holds the ABORT and stays silent.  A
        forgetting one has dropped it, so it votes NO on the late PREPARE;
        the NO vote finishes the transaction, and no log keeps a record."""
        traced, untraced = self._run(trace=True), self._run(trace=False)
        s2 = traced.server("s2").wal
        assert [record.record_type for record in s2.records()] == [LogRecordType.ABORT]
        assert _retained(untraced) == []
        # The one difference a reader can see: the forced NO vote.
        assert untraced.server("s2").wal.forced_writes == s2.forced_writes + 1


class _Delay:
    """A chaos hook delaying every ``kind`` message to ``dst``, on top of
    the hook already installed (the nemesis's), if any."""

    def __init__(self, network, kind, dst, delay):
        self.inner, self.kind, self.dst, self.delay = network.chaos, kind, dst, delay
        network.chaos = self

    def on_send(self, message, now):
        drop, extra = self.inner.on_send(message, now) if self.inner else (False, 0.0)
        if message.kind == self.kind and message.dst == self.dst:
            extra += self.delay
        return drop, extra


def _vote_window(trace, down_for, decision_delay, request_delay=0.0):
    """The in-doubt window of ``VOTE_CRASH``, restarting ``s2`` after
    ``down_for``, on a 3-server write, with the DECISION to ``s2`` and the
    DECISION_REQUEST to the coordinator held back by the given delays;
    returns the drained cluster."""
    plan = FaultPlan(
        (FaultSpec("crash", at=0.0, node="s2", on_kind=msg.VOTE_REPLY, down_for=down_for),),
        label="vote-crash",
    )
    config = CloudConfig(latency=FixedLatency(1.0), request_timeout=15.0)
    cluster = build_cluster(n_servers=3, seed=5, config=config, trace=trace)
    nemesis = Nemesis(cluster, plan)
    nemesis.install()
    _Delay(cluster.network, msg.DECISION, "s2", decision_delay)
    _Delay(cluster.network, msg.DECISION_REQUEST, cluster.tm.name, request_delay)
    outcome = cluster.submit(_three_server_write(cluster, "t-doubt"), "deferred", VIEW)
    cluster.run()
    nemesis.recover_all()
    cluster.run()
    assert outcome.value.committed
    return cluster


def _forced(cluster):
    return {name: cluster.server(name).wal.forced_writes for name in ("s1", "s2", "s3")}


def _three_server_write(cluster, txn_id):
    credential = cluster.issue_role_credential("alice")
    return Transaction(
        txn_id,
        "alice",
        queries=tuple(
            Query.write(f"{txn_id}-q{i}", deltas={f"s{i}/x1": -5}) for i in (1, 2, 3)
        ),
        credentials=(credential,),
    )


def _values(cluster):
    return {
        name: cluster.server(name).storage.committed_value(f"{name}/x1")
        for name in ("s1", "s2", "s3")
    }


def _retained(cluster, servers=("s1", "s2", "s3")):
    """Every record still held by the WAL of any TM or of one of ``servers``."""
    logs = [cluster.server(name).wal for name in servers]
    logs += [tm.wal for tm in cluster.tms]
    return [record for log in logs for record in log.records()]


class TestLockLeakOnCrash:
    def test_crash_cancels_waiters_and_drops_locks(self):
        """Regression: a crash used to replace the lock table wholesale,
        leaving queued waiters blocked on events nobody would ever resolve
        (and counting nothing).  The teardown must fail the waits in place
        and account for both the cancelled waits and the dropped locks."""
        cluster = build_cluster(
            n_servers=1, seed=9, config=CloudConfig(latency=FixedLatency(1.0))
        )
        server = cluster.server("s1")
        locks = server._lock_manager()

        granted = locks.acquire("t-holder", "s1/x1", LockMode.EXCLUSIVE)
        cluster.run()
        assert granted.ok
        waiting = locks.acquire("t-waiter", "s1/x1", LockMode.EXCLUSIVE)
        waiting.defused = True  # nobody yields on it; failure is the point
        assert locks.waiting("s1/x1") == ("t-waiter",)

        server.crash()

        assert cluster.metrics.faults.lock_waits_cancelled >= 1
        assert cluster.metrics.faults.locks_dropped_on_crash >= 1
        assert locks.holders("s1/x1") == ()
        assert locks.waiting("s1/x1") == ()
        assert not waiting.ok  # the queued waiter was failed, not leaked


class TestStateLossDetection:
    def test_server_refuses_execution_after_losing_prior_queries(self):
        """The coordinator names the queries it already ran on a server
        (``expected_queries``); a server whose crash wiped them must refuse
        instead of silently recreating partial transaction state."""
        cluster = build_cluster(
            n_servers=1, seed=17, config=CloudConfig(latency=FixedLatency(1.0))
        )
        credential = cluster.issue_role_credential("alice")
        replies = []

        def probe():
            reply = yield cluster.tm.request(
                "s1",
                msg.EXECUTE_QUERY,
                "query.execute",
                txn_id="t-lost",
                query=Query.write("t-lost-q2", deltas={"s1/x1": -1}),
                user="alice",
                credentials=(credential,),
                evaluate_proof=False,
                expected_queries=("t-lost-q1",),
            )
            replies.append(reply)

        done = cluster.env.process(probe())
        cluster.env.run(until=done)
        (reply,) = replies
        assert reply.kind == msg.QUERY_DENIED
        assert reply["reason"] == "state-lost"
        assert "t-lost-q1" in reply["detail"]
        # The refused execution left nothing behind on the server.
        assert cluster.server("s1").storage.active_transactions() == ()
