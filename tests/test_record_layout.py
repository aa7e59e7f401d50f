"""Records made once per transaction, message, proof or credential are slotted.

An in-flight transaction's records (its context, each participant's state,
lock waits, workspaces, log records, proofs and the credentials behind
them) are ``dataclass(slots=True)``: no per-instance ``__dict__``.  Slotting
must not change their value semantics: a frozen record still compares and
hashes by value and survives ``pickle`` (the parallel sweep pickles
outcomes), ``copy.deepcopy`` and ``dataclasses.replace``.
"""

import copy
import dataclasses
import pickle

import pytest

from repro.cloud import server
from repro.core.consistency import ConsistencyLevel
from repro.core.context import TxnContext
from repro.core.twopv import ValidationResult
from repro.core.twopvc import CommitResult
from repro.db import locks, storage, wal
from repro.errors import AbortReason
from repro.metrics.stats import TransactionOutcome
from repro.obs.spans import Span
from repro.policy.credentials import CertificateAuthority, RevocationRecord
from repro.policy.policy import Operation, Policy, PolicyId
from repro.policy.proofs import CredentialAssessment, ProofOfAuthorization
from repro.policy.rules import Atom, ProofNode, Rule, RuleSet, Variable, _fast_atom
from repro.sim.kernel import Environment
from repro.transactions.states import Decision
from repro.transactions.transaction import EffectKind, Query, QueryEffect, Transaction
from repro.workloads.scale import ScheduledTransaction


def records():
    """One instance of every slotted record type, by type name."""
    x = Variable("X")
    fact = Atom("role", ("bob", "member"))
    rule = Rule(Atom("may_read", (x, "customers")), (Atom("role", (x, "member")),))
    leaf = ProofNode(fact, "fact", source="ca/c1")
    credential = CertificateAuthority("ca").issue("bob", fact, 0.0)
    policy_id = PolicyId("app")
    assessment = CredentialAssessment(credential.cred_id, True, True, "ok")
    derivation = ProofNode(Atom("may_read", ("bob", "customers")), "rule", (leaf,), rule)
    effect = QueryEffect("x", EffectKind.DELTA, 5)
    query = Query("q1", Operation.WRITE, ("x",), (effect,))
    txn = Transaction("t1", "bob", (query,), (credential,))
    frozen = {
        "Variable": x,
        "Atom": fact,
        "Rule": rule,
        "ProofNode": derivation,
        "Credential": credential,
        "RevocationRecord": RevocationRecord(credential.cred_id, 2.0, "stolen"),
        "PolicyId": policy_id,
        "Policy": Policy(policy_id, 1, RuleSet([rule]), "v1"),
        "CredentialAssessment": assessment,
        "ProofOfAuthorization": ProofOfAuthorization(
            "q1", "bob", Operation.READ, ("customers",), "s1", policy_id, 1, 3.5,
            (credential.cred_id,), True, "ok", (assessment,), (derivation,),
        ),
        "QueryEffect": effect,
        "Query": query,
        "Transaction": txn,
        "TransactionOutcome": TransactionOutcome(
            "t1", "deferred", "view", False, AbortReason.DEADLOCK,
            0.0, 4.0, 6.5, 2, 1, 1, 1, 7, 1, commit_rounds=1,
        ),
        "AccessRecord": storage.AccessRecord(0, "t1", "x", storage.AccessKind.WRITE),
        "LogRecord": wal.LogRecord(
            1, wal.LogRecordType.PREPARED, "t1", True, 2.0, (("vote", "yes"),)
        ),
        "ScheduledTransaction": ScheduledTransaction(1.5, txn, "bob", "r1", 0),
    }
    mutable = {
        "TxnContext": TxnContext(txn, ConsistencyLevel.VIEW, "deferred", "tm1"),
        "CommitResult": CommitResult(Decision.COMMIT, 1),
        "ValidationResult": ValidationResult("continue", 1),
        "_ExecutedQuery": server._ExecutedQuery(query, "bob", (credential,), policy_id),
        "_TxnState": server._TxnState(),
        "_WaitEntry": locks._WaitEntry("t1", "x", locks.LockMode.SHARED, Environment().event()),
        "_LockState": locks._LockState(0),
        "Workspace": storage.Workspace("t1"),
        "Span": Span(1, "t1", None, "txn", "internal", "tm1", 0.0),
    }
    return frozen, mutable


FROZEN, MUTABLE = records()
ALL = {**FROZEN, **MUTABLE}


def test_every_record_type_is_listed_once():
    assert len(ALL) == 26
    assert all(type(record).__name__ == name for name, record in ALL.items())


@pytest.mark.parametrize("name", sorted(ALL))
def test_a_record_has_slots_and_no_instance_dict(name):
    record = ALL[name]
    assert "__slots__" in vars(type(record))
    assert not hasattr(record, "__dict__")


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_a_frozen_record_keeps_its_value_semantics(name):
    record = FROZEN[name]
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(record, dataclasses.fields(record)[0].name, None)
    for other in (
        pickle.loads(pickle.dumps(record)),
        copy.deepcopy(record),
        dataclasses.replace(record),
    ):
        assert other is not record
        assert type(other) is type(record)
        assert other == record
        assert hash(other) == hash(record)


def test_the_fast_atom_path_builds_an_equal_slotted_atom():
    atom = _fast_atom("role", ("bob", "member"))
    assert atom == FROZEN["Atom"] and hash(atom) == hash(FROZEN["Atom"])
    assert not hasattr(atom, "__dict__")


def test_the_context_lists_each_participant_once_through_its_queries():
    ctx = MUTABLE["TxnContext"]
    assert "participants" not in {field.name for field in dataclasses.fields(TxnContext)}
    assert not hasattr(ctx, "participants")
