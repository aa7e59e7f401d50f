"""Coverage for smaller surfaces: errors, cluster helpers, explain."""

import pytest

from repro.cloud.messages import POLICY_INSTALL, CAT_REPLICATION
from repro.errors import (
    AbortReason,
    DeadlockError,
    TransactionAborted,
)
from repro.policy.policy import PolicyId
from repro.policy.rules import Atom, FactBase, Rule, RuleSet, Variable
from repro.workloads.testbed import build_cluster


class TestErrors:
    def test_transaction_aborted_carries_reason(self):
        error = TransactionAborted(AbortReason.DEADLOCK, "victim t1")
        assert error.reason is AbortReason.DEADLOCK
        assert "deadlock" in str(error)
        assert "victim t1" in str(error)

    def test_deadlock_error_fields(self):
        error = DeadlockError(victim="t2", cycle=("t2", "t1"))
        assert error.victim == "t2"
        assert error.cycle == ("t2", "t1")

    def test_abort_reasons_are_distinct_values(self):
        values = [reason.value for reason in AbortReason]
        assert len(values) == len(set(values))


class TestClusterHelpers:
    def test_server_names_and_lookup(self):
        cluster = build_cluster(n_servers=2, seed=1)
        assert cluster.server_names() == ("s1", "s2")
        assert cluster.server("s1").name == "s1"
        assert cluster.admin("app").admin == "app"
        assert cluster.tm.name == "tm1"

    def test_policy_install_message_path(self):
        """Direct POLICY_INSTALL delivery applies to the store."""
        cluster = build_cluster(n_servers=1, seed=1)
        from repro.workloads.updates import benign_successor

        current = cluster.admin("app").current
        newer = current.successor(benign_successor(current))
        cluster.replicator.send(
            "s1", POLICY_INSTALL, CAT_REPLICATION, policy=newer
        )
        cluster.run()
        assert cluster.server("s1").policies.version_of(PolicyId("app")) == 2

    def test_replicator_rejects_incoming_messages(self):
        cluster = build_cluster(n_servers=1, seed=1)
        cluster.server("s1").send("replicator", "anything", "test")
        with pytest.raises(NotImplementedError):
            cluster.run()

    def test_unknown_server_message_kind_raises(self):
        cluster = build_cluster(n_servers=1, seed=1)
        cluster.tm.send("s1", "bogus.kind", "test")
        with pytest.raises(NotImplementedError):
            cluster.run()


class TestExplain:
    def test_fact_explanation_names_credential(self):
        facts = FactBase()
        facts.add(Atom("role", ("bob", "member")), source="ca/c1")
        proof = RuleSet([]).prove(Atom("role", ("bob", "member")), facts)
        text = proof.explain()
        assert "credential ca/c1" in text
        assert "role(bob, member)" in text

    def test_rule_explanation_indents_children(self):
        X = Variable("X")
        rules = RuleSet([Rule(Atom("p", (X,)), (Atom("q", (X,)), Atom("r", (X,))))])
        facts = FactBase()
        facts.add(Atom("q", ("a",)), source="c1")
        facts.add(Atom("r", ("a",)), source="c2")
        proof = rules.prove(Atom("p", ("a",)), facts)
        lines = proof.explain().splitlines()
        assert lines[0].startswith("p(a)")
        assert lines[1].startswith("  q(a)")
        assert lines[2].startswith("  r(a)")

    def test_end_to_end_explanation_from_transaction(self):
        cluster = build_cluster(n_servers=1, seed=2)
        credential = cluster.issue_role_credential("alice")
        from repro.transactions.transaction import Query, Transaction
        from repro.core.consistency import ConsistencyLevel

        txn = Transaction(
            "t-explain", "alice", (Query.read("q1", ["s1/x1"]),), (credential,)
        )
        outcome = cluster.run_transaction(txn, "punctual", ConsistencyLevel.VIEW)
        assert outcome.committed
        proof = cluster.tm.finished["t-explain"].final_proofs()[0]
        explanation = proof.derivations[0].explain()
        assert credential.cred_id in explanation
