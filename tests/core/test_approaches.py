"""Behavioural tests for the four enforcement approaches (Section IV)."""

import pytest

from repro.cloud.config import CloudConfig
from repro.core.approaches import APPROACHES, get_approach
from repro.core.consistency import ConsistencyLevel
from repro.errors import AbortReason
from repro.sim.network import FixedLatency
from repro.sim.tracing import PROOF_EVAL
from repro.transactions.transaction import Query, Transaction
from repro.workloads.testbed import build_cluster
from repro.workloads.updates import benign_successor, restricting_successor

VIEW, GLOBAL = ConsistencyLevel.VIEW, ConsistencyLevel.GLOBAL


def make_cluster(seed=3):
    return build_cluster(
        n_servers=3, seed=seed, config=CloudConfig(latency=FixedLatency(1.0))
    )


def txn_over_three(credentials, txn_id="t"):
    return Transaction(
        txn_id,
        "alice",
        queries=(
            Query.read(f"{txn_id}-q1", ["s1/x1"]),
            Query.read(f"{txn_id}-q2", ["s2/x1"]),
            Query.read(f"{txn_id}-q3", ["s3/x1"]),
        ),
        credentials=tuple(credentials),
    )


class TestRegistry:
    def test_all_four_registered(self):
        for name in ("deferred", "punctual", "incremental", "continuous"):
            assert get_approach(name).name == name

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            get_approach("optimistic-nonsense")

    def test_execution_evaluation_flags(self):
        assert not get_approach("deferred").evaluate_during_execution
        assert get_approach("punctual").evaluate_during_execution
        assert get_approach("incremental").evaluate_during_execution
        # Continuous validates via per-query 2PV, not execution-time eval.
        assert not get_approach("continuous").evaluate_during_execution


class TestDeferred:
    def test_no_proofs_during_execution(self):
        cluster = make_cluster()
        credential = cluster.issue_role_credential("alice")
        cluster.run_transaction(txn_over_three([credential], "t-d"), "deferred", VIEW)
        phases = [
            record.get("phase")
            for record in cluster.tracer.select(PROOF_EVAL)
            if record.get("txn_id") == "t-d"
        ]
        assert phases and all(phase == "commit" for phase in phases)

    def test_bad_credentials_detected_only_at_commit(self):
        cluster = make_cluster()
        outcome = cluster.run_transaction(txn_over_three([], "t-d2"), "deferred", VIEW)
        assert not outcome.committed
        # All queries executed before the abort was detected.
        assert outcome.queries_executed == 3


class TestPunctual:
    def test_proofs_during_execution_and_commit(self):
        cluster = make_cluster()
        credential = cluster.issue_role_credential("alice")
        cluster.run_transaction(txn_over_three([credential], "t-p"), "punctual", VIEW)
        phases = [
            record.get("phase")
            for record in cluster.tracer.select(PROOF_EVAL)
            if record.get("txn_id") == "t-p"
        ]
        assert phases.count("execution") == 3
        assert phases.count("commit") == 3

    def test_early_abort_on_denial(self):
        cluster = make_cluster()
        outcome = cluster.run_transaction(txn_over_three([], "t-p2"), "punctual", VIEW)
        assert not outcome.committed
        assert outcome.abort_reason is AbortReason.PROOF_FAILED
        assert outcome.queries_executed == 1  # stopped at the first query


class TestIncremental:
    def test_version_mismatch_aborts_view(self):
        cluster = make_cluster()
        credential = cluster.issue_role_credential("alice")
        # s1 keeps v1 during q1; v2 reaches s2 before q2 -> mismatch.
        cluster.publish(
            "app",
            benign_successor(cluster.admin("app").current),
            delays={"s1": 9999.0, "s2": 0.1, "s3": 9999.0},
        )
        cluster.run(until=2.0)
        outcome = cluster.run_transaction(
            txn_over_three([credential], "t-i"), "incremental", VIEW
        )
        assert not outcome.committed
        assert outcome.abort_reason is AbortReason.POLICY_INCONSISTENCY
        assert outcome.queries_executed == 2  # caught on the second query

    def test_consistent_run_commits_without_commit_proofs(self):
        cluster = make_cluster()
        credential = cluster.issue_role_credential("alice")
        outcome = cluster.run_transaction(
            txn_over_three([credential], "t-i2"), "incremental", VIEW
        )
        assert outcome.committed
        assert outcome.proof_evaluations == 3  # u only: no commit-time re-eval

    def test_global_mismatch_with_master_aborts(self):
        cluster = make_cluster()
        credential = cluster.issue_role_credential("alice")
        # Master knows v2 immediately; no server ever sees it.
        cluster.publish(
            "app",
            benign_successor(cluster.admin("app").current),
            delays={"s1": 9999.0, "s2": 9999.0, "s3": 9999.0},
        )
        cluster.run(until=1.0)
        outcome = cluster.run_transaction(
            txn_over_three([credential], "t-i3"), "incremental", GLOBAL
        )
        assert not outcome.committed
        assert outcome.abort_reason is AbortReason.POLICY_INCONSISTENCY
        assert outcome.queries_executed == 1

    def test_global_consistent_commits(self):
        cluster = make_cluster()
        credential = cluster.issue_role_credential("alice")
        outcome = cluster.run_transaction(
            txn_over_three([credential], "t-i4"), "incremental", GLOBAL
        )
        assert outcome.committed


class TestContinuous:
    def test_2pv_after_every_query(self):
        cluster = make_cluster()
        credential = cluster.issue_role_credential("alice")
        outcome = cluster.run_transaction(
            txn_over_three([credential], "t-c"), "continuous", VIEW
        )
        assert outcome.committed
        # Σ i proofs over the three per-query 2PV invocations.
        assert outcome.proof_evaluations == 6

    def test_newer_version_updates_instead_of_aborting(self):
        """Unlike Incremental, Continuous repairs staleness and proceeds."""
        cluster = make_cluster()
        credential = cluster.issue_role_credential("alice")
        cluster.publish(
            "app",
            benign_successor(cluster.admin("app").current),
            delays={"s1": 9999.0, "s2": 0.1, "s3": 9999.0},
        )
        cluster.run(until=2.0)
        outcome = cluster.run_transaction(
            txn_over_three([credential], "t-c2"), "continuous", VIEW
        )
        assert outcome.committed  # benign update: re-evaluation still TRUE
        # s1 must have been pushed to v2 by the 2PV after q2.
        versions = cluster.server("s1").policies.versions()
        assert list(versions.values())[0] == 2

    def test_restricting_update_aborts_mid_execution(self):
        cluster = make_cluster()
        credential = cluster.issue_role_credential("alice")
        cluster.publish(
            "app",
            restricting_successor(cluster.admin("app").current, "senior"),
            delays={"s1": 9999.0, "s2": 0.1, "s3": 9999.0},
        )
        cluster.run(until=2.0)
        outcome = cluster.run_transaction(
            txn_over_three([credential], "t-c3"), "continuous", VIEW
        )
        assert not outcome.committed
        assert outcome.abort_reason is AbortReason.PROOF_FAILED
        assert outcome.queries_executed == 2  # caught by the 2PV after q2
