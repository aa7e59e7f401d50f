"""Regression tests for decision durability and straggler failures.

Two bugs found by chaos testing, pinned here:

1. ``AllOf`` failed fast but left *later* child failures
   undefused, which crashed the kernel with an unhandled exception.
2. A lost decision acknowledgement after the coordinator had force-logged
   COMMIT unwound the transaction into an abort broadcast — a logged
   decision must be final.
"""

import pytest

from repro.cloud.config import CloudConfig
from repro.core.consistency import ConsistencyLevel
from repro.db.wal import LogRecordType
from repro.errors import RequestTimeout
from repro.sim.kernel import Environment
from repro.sim.network import FixedLatency
from repro.transactions.transaction import Query, Transaction
from repro.workloads.testbed import build_cluster
from tests.conftest import LinkCut

VIEW = ConsistencyLevel.VIEW


class TestConditionStragglers:
    def test_allof_defuses_late_child_failure(self, env):
        fast_bad = env.event()
        slow_bad = env.event()

        def failer():
            yield env.timeout(1)
            fast_bad.fail(ValueError("first"))
            yield env.timeout(5)
            slow_bad.fail(KeyError("straggler"))

        env.process(failer())
        combined = env.all_of([fast_bad, slow_bad])
        combined.add_callback(lambda ev: setattr(ev, "defused", True))
        env.run()  # must not raise on the straggler
        assert isinstance(combined.exception, ValueError)

    def test_allof_success_then_late_failure(self, env):
        """All children succeed... except one that fails after trigger is
        impossible for AllOf; instead verify success path unaffected."""
        combined = env.all_of([env.timeout(1, "a"), env.timeout(2, "b")])
        env.run()
        assert combined.value == ["a", "b"]


class TestDecisionDurability:
    def _commit_with_lost_acks(self, lost_servers):
        config = CloudConfig(latency=FixedLatency(1.0), request_timeout=10.0)
        cluster = build_cluster(n_servers=3, seed=55, config=config)
        credential = cluster.issue_role_credential("alice")
        txn = Transaction(
            "t-dur",
            "alice",
            queries=(
                Query.write("q1", deltas={"s1/x1": -1}),
                Query.write("q2", deltas={"s2/x1": -1}),
                Query.write("q3", deltas={"s3/x1": -1}),
            ),
            credentials=(credential,),
        )

        # Cut the ack path (server -> TM) once the server has voted.
        cut = LinkCut(cluster.network)

        def saboteur():
            while True:
                yield cluster.env.timeout(0.25)
                if all(
                    any(
                        record.record_type is LogRecordType.PREPARED
                        for record in cluster.server(name).wal.records_for("t-dur")
                    )
                    for name in lost_servers
                ):
                    cut.links.update((name, "tm1") for name in lost_servers)
                    return

        cluster.env.process(saboteur())
        process = cluster.submit(txn, "deferred", VIEW)
        outcome = cluster.env.run(until=process)
        cluster.run()
        return cluster, outcome

    def test_lost_ack_does_not_unwind_commit(self):
        cluster, outcome = self._commit_with_lost_acks(["s3"])
        assert outcome.committed
        # The coordinator logged exactly one decision: COMMIT, then END.
        records = [
            record.record_type
            for record in cluster.tm.wal.records_for("t-dur")
        ]
        assert records == [LogRecordType.COMMIT, LogRecordType.END]
        # Every participant applied the commit (the decision itself arrived;
        # only the ack was lost).
        for name in cluster.server_names():
            assert cluster.server(name).storage.committed_value(f"{name}/x1") == 99.0

    def test_all_acks_lost_still_commits(self):
        cluster, outcome = self._commit_with_lost_acks(["s1", "s2", "s3"])
        assert outcome.committed
        decisions = [
            record
            for record in cluster.tm.wal.records_for("t-dur")
            if record.record_type in (LogRecordType.COMMIT, LogRecordType.ABORT)
        ]
        assert len(decisions) == 1
        assert decisions[0].record_type is LogRecordType.COMMIT
