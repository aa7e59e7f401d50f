"""Unit tests for the transaction manager."""

import pytest

from repro.cloud.config import CloudConfig
from repro.core.consistency import ConsistencyLevel
from repro.errors import StorageError
from repro.sim.network import FixedLatency
from repro.transactions.transaction import Query, Transaction
from repro.workloads.testbed import build_cluster

VIEW = ConsistencyLevel.VIEW


@pytest.fixture
def small_cluster():
    return build_cluster(
        n_servers=2, seed=5, config=CloudConfig(latency=FixedLatency(1.0))
    )


class TestRouting:
    def test_cross_server_query_rejected(self, small_cluster):
        credential = small_cluster.issue_role_credential("alice")
        txn = Transaction(
            "t", "alice", (Query.read("q", ["s1/x1", "s2/x1"]),), (credential,)
        )
        process = small_cluster.submit(txn, "deferred", VIEW)
        with pytest.raises(StorageError):
            small_cluster.env.run(until=process)

    def test_multi_item_same_server_query_ok(self, small_cluster):
        credential = small_cluster.issue_role_credential("alice")
        txn = Transaction(
            "t", "alice", (Query.read("q", ["s1/x1", "s1/x2"]),), (credential,)
        )
        outcome = small_cluster.run_transaction(txn, "deferred", VIEW)
        assert outcome.committed

    def test_repeat_visits_to_same_server_are_one_participant(self, small_cluster):
        credential = small_cluster.issue_role_credential("alice")
        txn = Transaction(
            "t",
            "alice",
            (Query.read("q1", ["s1/x1"]), Query.read("q2", ["s1/x2"])),
            (credential,),
        )
        outcome = small_cluster.run_transaction(txn, "deferred", VIEW)
        assert outcome.participants == 1


class TestOutcomes:
    def test_read_values_recorded_in_context(self, small_cluster):
        credential = small_cluster.issue_role_credential("alice")
        txn = Transaction("t", "alice", (Query.read("q1", ["s1/x1"]),), (credential,))
        small_cluster.run_transaction(txn, "deferred", VIEW)
        ctx = small_cluster.tm.finished["t"]
        assert ctx.values["q1"] == {"s1/x1": 100.0}

    @pytest.mark.parametrize("trace, asked", [(True, False), (False, False), (False, True)])
    def test_finished_contexts_are_kept_when_traced_or_asked_for(self, trace, asked):
        """The coordinator, not its driver, decides what outlives a
        transaction: a finished context stays when the run is traced, or
        when a reader asked for it."""
        cluster = build_cluster(
            n_servers=2, seed=5, config=CloudConfig(latency=FixedLatency(1.0)), trace=trace
        )
        if asked:
            cluster.tm.keeps_finished = True
        credential = cluster.issue_role_credential("alice")
        txn = Transaction("t", "alice", (Query.read("q1", ["s1/x1"]),), (credential,))
        assert cluster.run_transaction(txn, "deferred", VIEW).committed
        assert list(cluster.tm.finished) == (["t"] if trace or asked else [])
        assert cluster.tm.active == {}

    def test_alpha_omega_ordering(self, small_cluster):
        credential = small_cluster.issue_role_credential("alice")
        txn = Transaction("t", "alice", (Query.read("q1", ["s1/x1"]),), (credential,))
        outcome = small_cluster.run_transaction(txn, "deferred", VIEW)
        assert outcome.started_at <= outcome.execution_done_at <= outcome.finished_at
        assert outcome.latency > 0

    def test_outcome_counts_queries(self, small_cluster):
        credential = small_cluster.issue_role_credential("alice")
        txn = Transaction(
            "t",
            "alice",
            (Query.read("q1", ["s1/x1"]), Query.read("q2", ["s2/x1"])),
            (credential,),
        )
        outcome = small_cluster.run_transaction(txn, "deferred", VIEW)
        assert outcome.queries_total == 2
        assert outcome.queries_executed == 2

    def test_outcomes_accumulate_per_tm(self, small_cluster):
        credential = small_cluster.issue_role_credential("alice")
        for index in range(3):
            txn = Transaction(
                f"t{index}", "alice", (Query.read(f"q{index}", ["s1/x1"]),), (credential,)
            )
            small_cluster.run_transaction(txn, "deferred", VIEW)
        assert len(small_cluster.tm.outcomes) == 3

    def test_empty_transaction_commits_trivially(self, small_cluster):
        txn = Transaction("t-empty", "alice", ())
        outcome = small_cluster.run_transaction(txn, "deferred", VIEW)
        assert outcome.committed
        assert outcome.participants == 0
        assert outcome.protocol_messages == 0


class TestMultipleTMs:
    def test_two_tms_coordinate_independently(self):
        cluster = build_cluster(
            n_servers=2, seed=6, config=CloudConfig(latency=FixedLatency(1.0)), n_tms=2
        )
        credential = cluster.issue_role_credential("alice")
        txn_a = Transaction("ta", "alice", (Query.read("qa", ["s1/x1"]),), (credential,))
        txn_b = Transaction("tb", "alice", (Query.read("qb", ["s2/x1"]),), (credential,))
        pa = cluster.submit(txn_a, "punctual", VIEW, tm_index=0)
        pb = cluster.submit(txn_b, "punctual", VIEW, tm_index=1)
        cluster.env.run(until=cluster.env.all_of([pa, pb]))
        assert len(cluster.tms[0].outcomes) == 1
        assert len(cluster.tms[1].outcomes) == 1
        assert all(outcome.committed for outcome in cluster.tms[0].outcomes)
        assert all(outcome.committed for outcome in cluster.tms[1].outcomes)
