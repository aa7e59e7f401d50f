"""Mutation suite: every violation class must be detectable.

Each test takes a *clean* recorded run (asserted violation-free by the
fixture), injects one targeted corruption through the
:class:`~repro.verify.events.RunRecord` mutation helpers, re-runs the
checker, and asserts the exact violation code fires for the corrupted
transaction.  This is the sanitizer's sensitivity proof — the companion to
the no-false-positive suite in ``test_clean_traces.py``.
"""

from __future__ import annotations

from typing import List, Optional

import pytest

from repro.cloud import messages as msg
from repro.verify import report as rep
from repro.verify.conformance import check_run
from repro.verify.events import CAT_STORAGE, SOURCE_STORAGE, RunRecord, VerifyEvent

# -- selection helpers ---------------------------------------------------------


def committed_ids(run: RunRecord) -> List[str]:
    return sorted(t for t, meta in run.transactions.items() if meta.committed)


def prepared_records(run: RunRecord, txn_id: str) -> List[VerifyEvent]:
    return run.select("wal", txn_id=txn_id, record_type="prepared")


def vote_sends(run: RunRecord, txn_id: str) -> List[VerifyEvent]:
    return run.select("net.send", txn_id=txn_id, kind=msg.VOTE_REPLY)


def decision_record(run: RunRecord, txn_id: str) -> Optional[VerifyEvent]:
    for event in run.select("wal", txn_id=txn_id):
        if event.get("node") in run.coordinators and event.get("record_type") in (
            "commit",
            "abort",
        ):
            return event
    return None


def pick_committed(run: RunRecord, predicate) -> str:
    for txn_id in committed_ids(run):
        if predicate(txn_id):
            return txn_id
    pytest.fail("no committed transaction matches this mutation scenario")


def assert_violation(run: RunRecord, code: str, txn_id: Optional[str] = None) -> None:
    report = check_run(run)
    assert code in report.codes(), (
        f"expected {code} after corruption; got {report.codes() or 'a clean report'}"
    )
    offenders = report.by_code()[code]
    if txn_id is not None:
        assert any(v.txn_id == txn_id for v in offenders)
    # Violations must carry concrete evidence, not just a message.
    assert all(v.event_ids for v in offenders)


# -- 2PC/2PVC state machine ----------------------------------------------------


def test_dropped_vote_is_detected(run_factory):
    run = run_factory("deferred")
    txn = pick_committed(run, lambda t: len(vote_sends(run, t)) >= 2)
    doomed = vote_sends(run, txn)[0]
    run.drop([e for e in vote_sends(run, txn) if e.get("src") == doomed.get("src")])
    assert_violation(run, rep.SM_COMMIT_WITHOUT_VOTE, txn)


def test_commit_after_no_vote_is_detected(run_factory):
    run = run_factory("deferred")
    txn = pick_committed(run, lambda t: bool(prepared_records(run, t)))
    run.rewrite(prepared_records(run, txn)[0], vote="no")
    assert_violation(run, rep.SM_COMMIT_AFTER_NO, txn)


def test_vote_after_decision_is_detected(run_factory):
    run = run_factory("deferred")
    txn = pick_committed(
        run, lambda t: bool(vote_sends(run, t)) and decision_record(run, t) is not None
    )
    decision = decision_record(run, txn)
    run.rewrite(vote_sends(run, txn)[0], time=decision.time + 5.0)
    assert_violation(run, rep.SM_VOTE_AFTER_DECISION, txn)


def test_conflicting_participant_decision_is_detected(run_factory):
    run = run_factory("deferred")

    def has_participant_commit(t):
        return any(
            e.get("node") not in run.coordinators
            for e in run.select("wal", txn_id=t, record_type="commit")
        )

    txn = pick_committed(run, has_participant_commit)
    participant_commit = next(
        e
        for e in run.select("wal", txn_id=txn, record_type="commit")
        if e.get("node") not in run.coordinators
    )
    run.rewrite(participant_commit, record_type="abort")
    assert_violation(run, rep.SM_DECISION_CONFLICT, txn)


def test_false_truth_report_is_detected(run_factory):
    run = run_factory("deferred")  # no churn => no repair rounds gate the check
    txn = pick_committed(run, lambda t: bool(prepared_records(run, t)))
    run.rewrite(prepared_records(run, txn)[0], truth=False)
    assert_violation(run, rep.SM_COMMIT_FALSE_TRUTH, txn)


def test_version_disagreement_is_detected(run_factory):
    run = run_factory("deferred")
    txn = pick_committed(run, lambda t: len(prepared_records(run, t)) >= 2)
    victim = prepared_records(run, txn)[0]
    bumped = {admin: version + 1 for admin, version in victim.get("versions").items()}
    run.rewrite(victim, versions=bumped)
    assert_violation(run, rep.SM_VERSION_DISAGREEMENT, txn)


# -- φ/ψ consistency and safety (Defs. 2-4) ------------------------------------


def _final_proofs(run, txn_id):
    final = {}
    for proof in run.select("proof.eval", txn_id=txn_id):
        query_id = proof.get("query_id")
        current = final.get(query_id)
        if current is None or (proof.time or 0.0) >= (current.time or 0.0):
            final[query_id] = proof
    return final


def test_mixed_proof_versions_violate_phi(run_factory):
    run = run_factory("deferred")
    txn = pick_committed(run, lambda t: len(_final_proofs(run, t)) >= 2)
    proof = next(iter(_final_proofs(run, txn).values()))
    run.rewrite(proof, version=proof.get("version") + 1)
    assert_violation(run, rep.CONSISTENCY_PHI, txn)


def test_stale_global_commit_violates_psi(run_factory):
    run = run_factory("deferred", "global", churn_interval=40.0)

    def behind_master(t):
        final = _final_proofs(run, t)
        if not final:
            return False
        window_start = min(p.time for p in final.values() if p.time is not None)
        low = run.version_at("app", window_start)
        return low is not None and low >= 2

    txn = pick_committed(run, behind_master)
    # Rewrite every proof of the transaction to the initial version: a
    # perfectly view-consistent commit that the master has long outgrown.
    for proof in run.select("proof.eval", txn_id=txn):
        run.rewrite(proof, version=1)
    assert_violation(run, rep.CONSISTENCY_PSI, txn)


def test_denied_final_proof_violates_safety(run_factory):
    run = run_factory("deferred")
    txn = pick_committed(run, lambda t: bool(_final_proofs(run, t)))
    proof = next(iter(_final_proofs(run, txn).values()))
    run.rewrite(proof, granted=False)
    assert_violation(run, rep.CONSISTENCY_UNSAFE_COMMIT, txn)


# -- proof freshness per approach (Defs. 5-9) ----------------------------------


def test_execution_proof_under_deferred_is_detected(run_factory):
    run = run_factory("deferred")
    txn = pick_committed(
        run, lambda t: bool(run.select("proof.eval", txn_id=t, phase="commit"))
    )
    proof = run.select("proof.eval", txn_id=txn, phase="commit")[0]
    run.rewrite(proof, phase="execution")
    assert_violation(run, rep.FRESHNESS_DEFERRED, txn)


def test_missing_punctual_proof_is_detected(run_factory):
    run = run_factory("punctual")

    def has_proofed_query(t):
        result_queries = {
            e.get("query_id")
            for e in run.select("net.send", txn_id=t, kind=msg.QUERY_RESULT)
        }
        exec_queries = {
            e.get("query_id")
            for e in run.select("proof.eval", txn_id=t, phase="execution")
        }
        return bool(result_queries & exec_queries)

    txn = pick_committed(run, has_proofed_query)
    query_id = sorted(
        {
            e.get("query_id")
            for e in run.select("net.send", txn_id=txn, kind=msg.QUERY_RESULT)
        }
        & {
            e.get("query_id")
            for e in run.select("proof.eval", txn_id=txn, phase="execution")
        }
    )[0]
    run.drop(
        run.select("proof.eval", txn_id=txn, phase="execution", query_id=query_id)
    )
    assert_violation(run, rep.FRESHNESS_PUNCTUAL, txn)


def test_commit_proof_under_incremental_is_detected(run_factory):
    run = run_factory("incremental")
    txn = pick_committed(
        run, lambda t: bool(run.select("proof.eval", txn_id=t, phase="execution"))
    )
    proof = run.select("proof.eval", txn_id=txn, phase="execution")[0]
    run.rewrite(proof, phase="commit")
    assert_violation(run, rep.FRESHNESS_INCREMENTAL, txn)


def test_backdated_continuous_proof_is_detected(run_factory):
    run = run_factory("continuous")

    def has_result_and_proof(t):
        result_queries = {
            e.get("query_id")
            for e in run.select("net.send", txn_id=t, kind=msg.QUERY_RESULT)
        }
        proof_queries = {
            e.get("query_id") for e in run.select("proof.eval", txn_id=t)
        }
        return bool(result_queries & proof_queries)

    txn = pick_committed(run, has_result_and_proof)
    query_id = sorted(
        {
            e.get("query_id")
            for e in run.select("net.send", txn_id=txn, kind=msg.QUERY_RESULT)
        }
        & {e.get("query_id") for e in run.select("proof.eval", txn_id=txn)}
    )[0]
    # Backdate every proof of the query to before execution even started.
    for proof in run.select("proof.eval", txn_id=txn, query_id=query_id):
        run.rewrite(proof, time=-1.0)
    assert_violation(run, rep.FRESHNESS_CONTINUOUS, txn)


# -- strict-2PL lock discipline ------------------------------------------------


def test_swapped_grant_release_is_detected(run_factory):
    run = run_factory("deferred")

    def swappable(t):
        for grant in run.select("lock.grant", txn_id=t):
            for release in run.select(
                "lock.release",
                txn_id=t,
                server=grant.get("server"),
                key=grant.get("key"),
            ):
                if grant.time != release.time:
                    return True
        return False

    txn = pick_committed(run, swappable)
    grant = next(
        g
        for g in run.select("lock.grant", txn_id=txn)
        if any(
            r.time != g.time
            for r in run.select(
                "lock.release", txn_id=txn, server=g.get("server"), key=g.get("key")
            )
        )
    )
    release = next(
        r
        for r in run.select(
            "lock.release", txn_id=txn, server=grant.get("server"), key=grant.get("key")
        )
        if r.time != grant.time
    )
    run.swap_times(grant, release)
    assert_violation(run, rep.LOCK_GRANT_AFTER_RELEASE, txn)


def _locked_access(run, txn_id, kinds=("read", "write")):
    for access in run.select("storage", txn_id=txn_id):
        if access.get("kind") not in kinds:
            continue
        grants = run.select(
            "lock.grant",
            txn_id=txn_id,
            server=access.get("server"),
            key=access.get("key"),
        )
        if grants:
            return access, grants
    return None, []


def test_access_without_lock_is_detected(run_factory):
    run = run_factory("deferred")
    txn = pick_committed(run, lambda t: _locked_access(run, t)[0] is not None)
    access, grants = _locked_access(run, txn)
    run.drop(grants)
    assert_violation(run, rep.LOCK_ACCESS_WITHOUT_LOCK, txn)


def test_write_under_shared_lock_is_detected(run_factory):
    run = run_factory("deferred")
    txn = pick_committed(
        run, lambda t: _locked_access(run, t, kinds=("write",))[0] is not None
    )
    _, grants = _locked_access(run, txn, kinds=("write",))
    for grant in grants:
        run.rewrite(grant, mode="S")
    assert_violation(run, rep.LOCK_MODE_MISMATCH, txn)


def test_unreleased_lock_is_detected(run_factory):
    run = run_factory("deferred")

    def releasable(t):
        for grant in run.select("lock.grant", txn_id=t):
            if run.select(
                "lock.release",
                txn_id=t,
                server=grant.get("server"),
                key=grant.get("key"),
            ):
                return True
        return False

    txn = pick_committed(run, releasable)
    grant = next(
        g
        for g in run.select("lock.grant", txn_id=txn)
        if run.select(
            "lock.release", txn_id=txn, server=g.get("server"), key=g.get("key")
        )
    )
    run.drop(
        run.select(
            "lock.release", txn_id=txn, server=grant.get("server"), key=grant.get("key")
        )
    )
    assert_violation(run, rep.LOCK_UNRELEASED, txn)


# -- WAL ordering ---------------------------------------------------------------


def test_vote_sent_before_prepared_record_is_detected(run_factory):
    run = run_factory("deferred")
    txn = pick_committed(
        run,
        lambda t: bool(vote_sends(run, t)) and bool(prepared_records(run, t)),
    )
    send = vote_sends(run, txn)[0]
    prepared = next(
        p for p in prepared_records(run, txn) if p.get("node") == send.get("src")
    )
    run.rewrite(prepared, time=send.time + 5.0)
    assert_violation(run, rep.WAL_VOTE_BEFORE_PREPARED, txn)


def test_decision_sent_before_logged_is_detected(run_factory):
    run = run_factory("deferred")
    txn = pick_committed(
        run,
        lambda t: decision_record(run, t) is not None
        and bool(run.select("net.send", txn_id=t, kind=msg.DECISION)),
    )
    first_send = min(
        run.select("net.send", txn_id=txn, kind=msg.DECISION), key=lambda e: e.time
    )
    run.rewrite(decision_record(run, txn), time=first_send.time + 5.0)
    assert_violation(run, rep.WAL_DECISION_ORDER, txn)


def test_apply_without_commit_record_is_detected(run_factory):
    run = run_factory("deferred")

    def has_apply(t):
        return any(
            e.get("kind") == "apply" for e in run.select("storage", txn_id=t)
        )

    txn = pick_committed(run, has_apply)
    server = next(
        e.get("server")
        for e in run.select("storage", txn_id=txn)
        if e.get("kind") == "apply"
    )
    run.drop(
        [
            e
            for e in run.select("wal", txn_id=txn, record_type="commit")
            if e.get("node") == server
        ]
    )
    assert_violation(run, rep.WAL_APPLY_WITHOUT_COMMIT, txn)


def test_end_before_decision_is_detected(run_factory):
    run = run_factory("deferred")

    def has_coordinator_end(t):
        return any(
            e.get("node") in run.coordinators
            for e in run.select("wal", txn_id=t, record_type="end")
        )

    txn = pick_committed(run, has_coordinator_end)
    end = next(
        e
        for e in run.select("wal", txn_id=txn, record_type="end")
        if e.get("node") in run.coordinators
    )
    run.rewrite(end, lsn=-1)
    assert_violation(run, rep.WAL_END_BEFORE_DECISION, txn)


# -- serializability -------------------------------------------------------------


def test_injected_conflict_cycle_is_detected(run_factory):
    run = run_factory("deferred")
    commits = committed_ids(run)
    assert len(commits) >= 2
    first, second = commits[0], commits[1]
    server = run.servers[0]
    top = max(
        (e.get("sequence") for e in run.select("storage", server=server)), default=0
    )
    next_id = max(e.event_id for e in run.events) + 1
    # first reads then second overwrites (rw: first -> second), and
    # second reads another key that first then overwrites (rw: second -> first).
    schedule = [
        (first, "cycle/a", "read"),
        (second, "cycle/a", "write"),
        (second, "cycle/b", "read"),
        (first, "cycle/b", "write"),
    ]
    for offset, (txn_id, key, kind) in enumerate(schedule):
        data = {
            "server": server,
            "txn_id": txn_id,
            "key": key,
            "kind": kind,
            "sequence": top + 1 + offset,
        }
        run.events.append(
            VerifyEvent(
                event_id=next_id + offset,
                time=None,
                source=SOURCE_STORAGE,
                category=CAT_STORAGE,
                data=tuple(sorted(data.items())),
            )
        )
    report = check_run(run, checks=["serializability"])
    assert report.codes() == [rep.SERIALIZABILITY_CYCLE]
    assert report.violations[0].txn_id in (first, second)


# -- coverage meta-check ---------------------------------------------------------


def test_mutation_suite_covers_required_violation_breadth():
    """The acceptance bar: well over 8 distinct violation classes exercised."""
    import inspect
    import sys

    source = inspect.getsource(sys.modules[__name__])
    constant_names = {
        name
        for name in dir(rep)
        if name.isupper() and getattr(rep, name) in rep.ALL_CODES
    }
    referenced = {name for name in constant_names if f"rep.{name}" in source}
    assert len(referenced) >= 8, sorted(referenced)
    # This suite aims for near-total coverage of the checker's vocabulary.
    assert len(referenced) >= 20, sorted(constant_names - referenced)
