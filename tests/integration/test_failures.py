"""Failure injection: crashes, recovery, unreachable participants.

Section V-C: "the resilience of 2PVC to system and communication failures
can be achieved in the same manner as 2PC by recording the progress of the
protocol in the logs of the TM and participant."
"""

import pytest

from repro.cloud.config import CloudConfig
from repro.core.consistency import ConsistencyLevel
from repro.db.recovery import analyze
from repro.db.wal import LogRecordType
from repro.errors import AbortReason
from repro.sim.network import FixedLatency
from repro.transactions.transaction import Query, Transaction
from repro.workloads.testbed import build_cluster
from tests.conftest import LinkCut

VIEW = ConsistencyLevel.VIEW


def make_cluster(**kwargs):
    config = CloudConfig(latency=FixedLatency(1.0), request_timeout=30.0)
    return build_cluster(n_servers=3, seed=21, config=config, **kwargs)


def three_server_txn(credential, txn_id="t"):
    return Transaction(
        txn_id,
        "alice",
        queries=(
            Query.write(f"{txn_id}-q1", deltas={"s1/x1": -5}),
            Query.write(f"{txn_id}-q2", deltas={"s2/x1": -5}),
            Query.write(f"{txn_id}-q3", deltas={"s3/x1": -5}),
        ),
        credentials=(credential,),
    )


class TestUnreachableParticipants:
    def test_down_server_aborts_transaction(self):
        cluster = make_cluster()
        credential = cluster.issue_role_credential("alice")
        cluster.server("s2").crash()
        outcome = cluster.run_transaction(
            three_server_txn(credential, "t-down"), "deferred", VIEW
        )
        assert not outcome.committed
        assert outcome.abort_reason is AbortReason.PARTICIPANT_UNREACHABLE

    def test_abort_releases_surviving_participants(self):
        cluster = make_cluster()
        credential = cluster.issue_role_credential("alice")
        cluster.server("s3").crash()
        cluster.run_transaction(three_server_txn(credential, "t-rel"), "deferred", VIEW)
        # s1 executed its query, then received the abort decision.
        assert cluster.server("s1").storage.committed_value("s1/x1") == 100.0
        assert cluster.server("s1").storage.active_transactions() == ()

    def test_link_failure_mid_commit_aborts(self):
        cluster = make_cluster()
        credential = cluster.issue_role_credential("alice")
        cut = LinkCut(cluster.network)

        def saboteur():
            yield cluster.env.timeout(10.0)  # during execution/voting
            cut.links.update({("tm1", "s2"), ("s2", "tm1")})

        cluster.env.process(saboteur())
        outcome = cluster.run_transaction(
            three_server_txn(credential, "t-link"), "deferred", VIEW
        )
        assert not outcome.committed
        drops = cluster.tracer.select("net.drop")
        assert drops and all(record.time >= 10.0 for record in drops)


class TestCrashRecovery:
    def test_prepared_participant_recovers_commit_decision(self):
        """A participant that crashes after voting YES learns the decision
        from the coordinator's log on recovery and applies the writes."""
        cluster = make_cluster()
        credential = cluster.issue_role_credential("alice")
        txn_id = "t-crash"
        process = cluster.submit(three_server_txn(credential, txn_id), "deferred", VIEW)
        outcome = cluster.env.run(until=process)
        assert outcome.committed
        server = cluster.server("s2")
        assert server.storage.committed_value("s2/x1") == 95.0

        # Simulate losing the applied state: crash wipes volatile state but
        # the WAL survives; recovery replays the logged decision.
        server.crash()
        # Roll committed state back to simulate a crash *before* apply by
        # reinstalling the old value, then recover using the WAL.
        server.storage.install("s2/x1", 100.0)
        server.recover()
        cluster.run()
        assert server.storage.committed_value("s2/x1") == 95.0

    def test_in_doubt_participant_resolves_via_coordinator(self):
        """Force an in-doubt state: prepared logged, decision never received."""
        cluster = make_cluster()
        credential = cluster.issue_role_credential("alice")
        txn_id = "t-doubt"
        cut = LinkCut(cluster.network)

        # Cut the TM -> s2 decision path right after voting completes.
        def saboteur():
            while True:
                yield cluster.env.timeout(0.25)
                if any(
                    record.record_type is LogRecordType.PREPARED
                    for record in cluster.server("s2").wal.records_for(txn_id)
                ):
                    cut.links.add(("tm1", "s2"))
                    return

        cluster.env.process(saboteur())
        process = cluster.submit(three_server_txn(credential, txn_id), "deferred", VIEW)
        try:
            cluster.env.run(until=process)
        except Exception:
            pass
        cluster.run()

        server = cluster.server("s2")
        # s2 is in doubt: prepared but no decision.
        assert txn_id in analyze(server.wal).in_doubt

        # Heal, crash, recover: the termination protocol asks the TM.
        cut.links.clear()
        server.crash()
        server.recover()
        cluster.run()
        decision = server.wal.decision_for(txn_id)
        assert decision is not None
        tm_decision = cluster.tm.wal.decision_for(txn_id)
        assert tm_decision is not None
        assert decision.record_type is tm_decision.record_type

    def test_recovery_with_no_coordinator_decision_presumes_abort(self):
        cluster = make_cluster()
        server = cluster.server("s1")
        # Fabricate an in-doubt transaction the TM never decided.
        server.wal.force(
            LogRecordType.PREPARED,
            "ghost-txn",
            cluster.env.now,
            vote="yes",
            truth=True,
            versions={},
            writes={},
            coordinator="tm1",
        )
        server.crash()
        server.recover()
        cluster.run()
        decision = server.wal.decision_for("ghost-txn")
        assert decision is not None
        assert decision.record_type is LogRecordType.ABORT

    def test_crash_discards_workspaces_and_locks(self):
        cluster = make_cluster()
        server = cluster.server("s1")
        server.storage.write("tx", "s1/x1", 0.0)
        server._lock_manager().acquire("tx", "s1/x1", __import__("repro.db.locks", fromlist=["LockMode"]).LockMode.EXCLUSIVE)
        server.crash()
        assert server.storage.active_transactions() == ()
        assert server.locks.holders("s1/x1") == ()
