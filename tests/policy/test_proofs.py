"""Unit tests for proof-of-authorization evaluation (eval(f, t))."""

from dataclasses import fields

import pytest

from repro.policy.credentials import CARegistry, CertificateAuthority, Credential
from repro.policy.policy import Operation, Policy, PolicyId
from repro.policy.proofs import (
    CredentialAssessment,
    LocalRevocationChecker,
    PrefetchedStatuses,
    assess_credentials,
    evaluate_proof,
)
from repro.policy.rules import Atom, Rule, RuleSet, Variable

U, I = Variable("U"), Variable("I")


@pytest.fixture
def ca():
    return CertificateAuthority("ca")


@pytest.fixture
def registry(ca):
    return CARegistry([ca])


@pytest.fixture
def policy():
    rules = RuleSet(
        [
            Rule(Atom("may_read", (U, I)), (Atom("role", (U, "member")), Atom("item", (I,)))),
            Rule(Atom("may_write", (U, I)), (Atom("role", (U, "admin")), Atom("item", (I,)))),
            Rule(Atom("item", ("inventory",))),
        ]
    )
    return Policy(PolicyId("app"), 3, rules)


def run_eval(policy, registry, credentials, operation=Operation.READ, now=5.0, user="bob"):
    return evaluate_proof(
        policy=policy,
        query_id="q1",
        user=user,
        operation=operation,
        items=["inventory"],
        credentials=credentials,
        server="s1",
        now=now,
        registry=registry,
    )


class TestGrant:
    def test_valid_member_read_granted(self, ca, registry, policy):
        credential = ca.issue("bob", Atom("role", ("bob", "member")), 0.0)
        proof = run_eval(policy, registry, [credential])
        assert proof.granted
        assert proof.reason == "ok"
        assert proof.policy_version == 3
        assert proof.admin == "app"

    def test_proof_records_credentials_used(self, ca, registry, policy):
        member = ca.issue("bob", Atom("role", ("bob", "member")), 0.0)
        unrelated = ca.issue("bob", Atom("role", ("bob", "auditor")), 0.0)
        proof = run_eval(policy, registry, [member, unrelated])
        assert proof.credentials_used() == (member.cred_id,)
        assert set(proof.credential_ids) == {member.cred_id, unrelated.cred_id}

    def test_write_requires_admin_role(self, ca, registry, policy):
        member = ca.issue("bob", Atom("role", ("bob", "member")), 0.0)
        admin = ca.issue("bob", Atom("role", ("bob", "admin")), 0.0)
        assert not run_eval(policy, registry, [member], Operation.WRITE).granted
        assert run_eval(policy, registry, [member, admin], Operation.WRITE).granted


class TestDeny:
    def test_no_credentials_denied(self, registry, policy):
        proof = run_eval(policy, registry, [])
        assert not proof.granted
        assert "unprovable" in proof.reason

    def test_expired_credential_excluded(self, ca, registry, policy):
        credential = ca.issue("bob", Atom("role", ("bob", "member")), 0.0, expires_at=3.0)
        proof = run_eval(policy, registry, [credential], now=5.0)
        assert not proof.granted
        assert proof.assessments[0].reason == "expired"

    def test_revoked_credential_excluded(self, ca, registry, policy):
        credential = ca.issue("bob", Atom("role", ("bob", "member")), 0.0)
        ca.revoke(credential.cred_id, at_time=2.0)
        proof = run_eval(policy, registry, [credential], now=5.0)
        assert not proof.granted
        assert proof.assessments[0].reason == "revoked"

    def test_forged_credential_excluded(self, ca, registry, policy):
        credential = ca.issue("eve", Atom("role", ("eve", "intern")), 0.0)
        forged = credential.tampered(atom=Atom("role", ("eve", "member")))
        proof = run_eval(policy, registry, [forged], user="eve")
        assert not proof.granted
        assert proof.assessments[0].reason == "bad_signature"

    def test_unknown_item_denied(self, ca, registry, policy):
        credential = ca.issue("bob", Atom("role", ("bob", "member")), 0.0)
        proof = evaluate_proof(
            policy, "q", "bob", Operation.READ, ["not-an-item"], [credential],
            "s1", 5.0, registry,
        )
        assert not proof.granted


class TestRevocationCheckers:
    def test_prefetched_statuses_respected(self, ca, registry, policy):
        credential = ca.issue("bob", Atom("role", ("bob", "member")), 0.0)
        proof = evaluate_proof(
            policy, "q", "bob", Operation.READ, ["inventory"], [credential],
            "s1", 5.0, registry,
            revocation=PrefetchedStatuses({credential.cred_id: False}),
        )
        assert not proof.granted
        assert proof.assessments[0].reason == "revoked"

    def test_prefetched_missing_status_fails_closed(self, ca, registry, policy):
        credential = ca.issue("bob", Atom("role", ("bob", "member")), 0.0)
        proof = evaluate_proof(
            policy, "q", "bob", Operation.READ, ["inventory"], [credential],
            "s1", 5.0, registry,
            revocation=PrefetchedStatuses({}),
        )
        assert not proof.granted
        assert proof.assessments[0].reason == "status_unavailable"

    def test_local_checker_matches_registry(self, ca, registry):
        credential = ca.issue("bob", Atom("role", ("bob", "member")), 0.0)
        checker = LocalRevocationChecker(registry)
        assert checker.check(credential, 0.0, 5.0) == (True, "ok")
        ca.revoke(credential.cred_id, 1.0)
        assert checker.check(credential, 0.0, 5.0) == (False, "revoked")

    def test_local_checker_token_is_built_once(self, registry):
        checker = LocalRevocationChecker(registry)
        assert checker.cache_token() == ("local", id(registry))
        assert checker.cache_token() is checker.cache_token()


class _Junk:
    def __repr__(self):
        return "junk"


class _Unprintable(Credential):
    def __repr__(self):
        raise AssertionError("a well-formed credential was rendered")


class TestAssessCredentials:
    def test_a_malformed_credential_is_named_by_its_repr(self, registry):
        checker = LocalRevocationChecker(registry)
        assert assess_credentials([_Junk()], registry, checker, 5.0) == [
            CredentialAssessment("<malformed:junk>", False, False, "malformed")
        ]

    def test_a_well_formed_credential_is_not_rendered(self, ca, registry):
        issued = ca.issue("bob", Atom("role", ("bob", "member")), 0.0)
        credential = _Unprintable(**{f.name: getattr(issued, f.name) for f in fields(issued)})
        checker = LocalRevocationChecker(registry)
        assert assess_credentials([credential], registry, checker, 5.0) == [
            CredentialAssessment(issued.cred_id, True, True, "ok")
        ]


class TestProofRecord:
    def test_repr_contains_verdict(self, ca, registry, policy):
        credential = ca.issue("bob", Atom("role", ("bob", "member")), 0.0)
        assert "GRANTED" in repr(run_eval(policy, registry, [credential]))
        assert "DENIED" in repr(run_eval(policy, registry, []))

    def test_timestamp_and_server_recorded(self, ca, registry, policy):
        credential = ca.issue("bob", Atom("role", ("bob", "member")), 0.0)
        proof = run_eval(policy, registry, [credential], now=7.25)
        assert proof.evaluated_at == 7.25
        assert proof.server == "s1"
