"""Definition-level semantics (Defs. 1, 6, 7) and credential expiry mid-transaction.

The file keeps its historical name because test ids are what the test floor
lists; the trace-dump tests it was named after went with
``repro.metrics.tracedump`` (PR 18).
"""

from repro.cloud.config import CloudConfig
from repro.core.consistency import ConsistencyLevel, view_instance
from repro.sim.network import FixedLatency
from repro.transactions.transaction import Query, Transaction
from repro.workloads.testbed import build_cluster

VIEW = ConsistencyLevel.VIEW


def committed_cluster(seed=71):
    cluster = build_cluster(
        n_servers=2, seed=seed, config=CloudConfig(latency=FixedLatency(1.0))
    )
    credential = cluster.issue_role_credential("alice")
    txn = Transaction(
        "t-dump",
        "alice",
        (Query.read("q1", ["s1/x1"]), Query.read("q2", ["s2/x1"])),
        (credential,),
    )
    outcome = cluster.run_transaction(txn, "punctual", VIEW)
    assert outcome.committed
    return cluster


class TestDefinitionSemantics:
    """Direct checks of the numbered definitions over recorded views."""

    def test_definition6_punctual_proofs_at_every_instant_and_commit(self):
        """Def. 6: eval(f, ti) at each query time AND eval(f, ω(T))."""
        cluster = committed_cluster(seed=72)
        ctx = cluster.tm.finished["t-dump"]
        by_query = {}
        for proof in ctx.view:
            by_query.setdefault(proof.query_id, []).append(proof)
        for query_id, proofs in by_query.items():
            assert len(proofs) >= 2  # execution-time + commit-time
            assert all(proof.granted for proof in proofs)
            # The commit-time evaluation is at/after ω(T).
            assert max(p.evaluated_at for p in proofs) >= ctx.ready_at

    def test_definition7_view_instance_prefix_of_recorded_view(self):
        """Def. 7: V^T_ti contains exactly the proofs evaluated by ti."""
        cluster = committed_cluster(seed=73)
        ctx = cluster.tm.finished["t-dump"]
        times = sorted(proof.evaluated_at for proof in ctx.view)
        for cutoff in times:
            instance = view_instance(ctx.view, cutoff)
            assert all(proof.evaluated_at <= cutoff for proof in instance)
            assert len(instance) == sum(1 for t in times if t <= cutoff)

    def test_definition1_view_accumulates_all_evaluations(self):
        """Def. 1: the view holds every proof evaluated in [α(T), ω(T)]."""
        cluster = committed_cluster(seed=74)
        ctx = cluster.tm.finished["t-dump"]
        # punctual, 2 queries: 2 execution + 2 commit evaluations.
        assert len(ctx.view) == 4
        assert all(
            ctx.started_at <= proof.evaluated_at <= ctx.finished_at
            for proof in ctx.view
        )


class TestCredentialExpiryMidTransaction:
    def test_expiring_credential_caught_at_commit(self):
        """ω(c_k) passing mid-transaction makes the commit-time proof fail
        syntactic validity — deferred catches it at 2PVC."""
        cluster = build_cluster(
            n_servers=2, seed=75, config=CloudConfig(latency=FixedLatency(1.0))
        )
        # Expires after execution (~t=6) but before commit-time evaluation.
        credential = cluster.issue_role_credential("alice", expires_at=6.5)
        txn = Transaction(
            "t-exp",
            "alice",
            (Query.read("q1", ["s1/x1"]), Query.read("q2", ["s2/x1"])),
            (credential,),
        )
        outcome = cluster.run_transaction(txn, "deferred", VIEW)
        assert not outcome.committed
        ctx = cluster.tm.finished["t-exp"]
        reasons = {
            assessment.reason
            for proof in ctx.view
            for assessment in proof.assessments
        }
        assert "expired" in reasons

    def test_still_valid_credential_commits(self):
        cluster = build_cluster(
            n_servers=2, seed=76, config=CloudConfig(latency=FixedLatency(1.0))
        )
        credential = cluster.issue_role_credential("alice", expires_at=1000.0)
        txn = Transaction(
            "t-ok",
            "alice",
            (Query.read("q1", ["s1/x1"]), Query.read("q2", ["s2/x1"])),
            (credential,),
        )
        outcome = cluster.run_transaction(txn, "deferred", VIEW)
        assert outcome.committed
