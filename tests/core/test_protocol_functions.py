"""Unit tests for the pure protocol helpers in repro.core.twopv."""

import pytest

from repro.core.consistency import ConsistencyLevel
from repro.core.context import TxnContext
from repro.core.twopv import ValidationResult, compute_targets, find_outdated, ingest_report
from repro.policy.policy import Policy, PolicyId
from repro.policy.rules import Atom, Rule, RuleSet
from repro.transactions.transaction import Query, Transaction

APP, HR = PolicyId("app"), PolicyId("hr")


def rules(marker="a"):
    return RuleSet([Rule(Atom(f"m_{marker}", ()))])


def make_ctx(consistency=ConsistencyLevel.VIEW):
    txn = Transaction("t", "alice", (Query.read("q1", ["x"]),))
    return TxnContext(
        txn=txn, consistency=consistency, approach_name="test", coordinator="tm"
    )


def report(truth=True, versions=None, policies=None, proofs=()):
    return {
        "truth": truth,
        "versions": versions or {},
        "policies": policies or {},
        "proofs": list(proofs),
    }


class TestIngestReport:
    def test_versions_recorded_per_server(self):
        ctx = make_ctx()
        ingest_report(ctx, "s1", report(versions={APP: 3}))
        ingest_report(ctx, "s2", report(versions={APP: 4}))
        assert ctx.versions_seen[APP] == {"s1": 3, "s2": 4}

    def test_freshest_policy_body_kept(self):
        ctx = make_ctx()
        v2 = Policy(APP, 2, rules("b"))
        v3 = Policy(APP, 3, rules("c"))
        ingest_report(ctx, "s1", report(policies={APP: v3}))
        ingest_report(ctx, "s2", report(policies={APP: v2}))  # older: ignored
        assert ctx.policies_known[APP] is v3

    def test_truth_value_returned(self):
        ctx = make_ctx()
        out = ingest_report(ctx, "s1", report(truth=False))
        assert out["truth"] is False


class TestComputeTargets:
    def test_view_takes_max_per_domain(self):
        ctx = make_ctx(ConsistencyLevel.VIEW)
        reports = {
            "s1": report(versions={APP: 2, HR: 7}),
            "s2": report(versions={APP: 5, HR: 3}),
        }
        assert compute_targets(ctx, reports) == {APP: 5, HR: 7}

    def test_global_takes_master_versions(self):
        ctx = make_ctx(ConsistencyLevel.GLOBAL)
        ctx.record_master_versions({APP: 9})
        reports = {"s1": report(versions={APP: 2})}
        assert compute_targets(ctx, reports) == {APP: 9}

    def test_global_ignores_untracked_domains(self):
        ctx = make_ctx(ConsistencyLevel.GLOBAL)
        reports = {"s1": report(versions={APP: 2})}
        assert compute_targets(ctx, reports) == {}

    def test_empty_reports(self):
        assert compute_targets(make_ctx(), {}) == {}


class TestFindOutdated:
    def test_stale_server_gets_needed_policy(self):
        ctx = make_ctx()
        v5 = Policy(APP, 5, rules("e"))
        ctx.learn_policy(v5)
        reports = {
            "s1": report(versions={APP: 5}),
            "s2": report(versions={APP: 3}),
        }
        outdated = find_outdated(ctx, reports, {APP: 5})
        assert list(outdated) == ["s2"]
        assert outdated["s2"] == [v5]

    def test_no_body_available_means_no_update(self):
        """The TM cannot push a version it has no body for."""
        ctx = make_ctx()
        reports = {"s1": report(versions={APP: 3})}
        assert find_outdated(ctx, reports, {APP: 5}) == {}

    def test_up_to_date_servers_excluded(self):
        ctx = make_ctx()
        ctx.learn_policy(Policy(APP, 5, rules("e")))
        reports = {"s1": report(versions={APP: 5})}
        assert find_outdated(ctx, reports, {APP: 5}) == {}

    def test_multi_domain_staleness(self):
        ctx = make_ctx()
        app5 = Policy(APP, 5, rules("a5"))
        hr2 = Policy(HR, 2, rules("h2"))
        ctx.learn_policy(app5)
        ctx.learn_policy(hr2)
        reports = {"s1": report(versions={APP: 4, HR: 1})}
        outdated = find_outdated(ctx, reports, {APP: 5, HR: 2})
        assert set(outdated["s1"]) == {app5, hr2}


class TestValidationResult:
    def test_ok_property(self):
        assert ValidationResult("continue", 1).ok
        assert not ValidationResult("abort", 2).ok


class TestContextHelpers:
    def test_all_credentials_concatenates_extras(self):
        from repro.policy.credentials import CertificateAuthority

        ca = CertificateAuthority("ca")
        base = ca.issue("alice", Atom("role", ("alice", "m")), 0.0)
        extra = ca.issue("alice", Atom("cap", ("alice", "x")), 1.0)
        txn = Transaction("t", "alice", (Query.read("q1", ["x"]),), (base,))
        ctx = TxnContext(
            txn=txn,
            consistency=ConsistencyLevel.VIEW,
            approach_name="test",
            coordinator="tm",
        )
        ctx.add_capability(extra)
        assert ctx.all_credentials() == (base, extra)

    def test_note_participant_deduplicates(self):
        ctx = make_ctx()
        q1, q2 = Query.read("a", ["x"]), Query.read("b", ["y"])
        ctx.note_participant("s1", q1)
        ctx.note_participant("s1", q2)
        assert ctx.active_participants() == ["s1"]
        assert ctx.queries_by_server["s1"] == [q1, q2]

    def test_final_proofs_orders_by_submission(self):
        from tests.core.test_consistency import make_proof

        txn = Transaction(
            "t", "alice", (Query.read("q1", ["x"]), Query.read("q2", ["y"]))
        )
        ctx = TxnContext(
            txn=txn,
            consistency=ConsistencyLevel.VIEW,
            approach_name="test",
            coordinator="tm",
        )
        second = make_proof(query="q2", at=1.0)
        first_old = make_proof(query="q1", at=2.0)
        first_new = make_proof(query="q1", at=3.0, version=2)
        for proof in (second, first_old, first_new):
            ctx.record_proof(proof)
        finals = ctx.final_proofs()
        assert [proof.query_id for proof in finals] == ["q1", "q2"]
        assert finals[0] is first_new  # latest per query wins
        assert len(ctx.view) == 3  # the view keeps everything
