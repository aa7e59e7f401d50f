"""Protocol-conformance checks ("trace sanitizer") over recorded runs.

Offline, static checks of everything the paper *defines* but the simulator
merely *implements*: the 2PC/2PVC vote/decision state machines (Algorithm
2, Fig. 7), proof-of-authorization freshness per enforcement approach
(Defs. 5-9), view/global consistency of every committed transaction
(Defs. 2-3) and safety (Def. 4), strict-2PL lock discipline, write-ahead
ordering of the commit protocol's log records (Section V-C), and conflict
serializability of the committed schedule via direct-serialization-graph
cycle detection (Biswas & Enea style).

Each check consumes a :class:`repro.verify.events.RunRecord` — the unified
trace/WAL/storage event list — and reports
:class:`repro.verify.report.Violation` records naming the offending event
ids with a minimal evidence slice.  ``check_run`` is pure: corrupting the
event list (as the mutation tests do) and re-running it is the intended
testing strategy.

Scope: fault-free *and* crash-faulted runs.  Node crashes are recorded in
the trace (``fault.crash``, :meth:`repro.metrics.counters.Metrics.
node_crashed`), and the checks that would otherwise misfire on legitimate
crash behaviour consult them: a lock granted on a server that crashed
afterwards is excused from the strict-2PL release obligation (the volatile
lock table died with the server — there is nothing left to release).
Everything a crash does *not* excuse — committing without votes, applying
without a commit record, consistency of what actually committed — is still
checked, which is exactly what lets ``repro.chaos`` use this module as a
violation hunter under fault schedules.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.cloud import messages as msg
from repro.db.serializability import conflict_edges_from_histories, find_cycle
from repro.sim.tracing import (
    FAULT_CRASH,
    LOCK_GRANT,
    LOCK_RELEASE,
    NET_RECV,
    NET_SEND,
    PROOF_EVAL,
    pair_value,
)
from repro.verify import report as rep
from repro.verify.events import CAT_STORAGE, CAT_WAL, RunRecord, TxnMeta, VerifyEvent
from repro.verify.report import VerificationReport, Violation, make_violation

_COMMIT = "commit"
_ABORT = "abort"
_PREPARED = "prepared"
_END = "end"


@dataclass
class _TxnView:
    """Everything gathered about one transaction in a single pass."""

    meta: TxnMeta
    prepare_sends: List[VerifyEvent] = field(default_factory=list)
    vote_sends: List[VerifyEvent] = field(default_factory=list)
    decision_sends: List[VerifyEvent] = field(default_factory=list)
    update_sends: List[VerifyEvent] = field(default_factory=list)
    #: query_id -> query.result net.send events (server replies).
    query_results: Dict[str, List[VerifyEvent]] = field(default_factory=dict)
    #: master.versions reply sends answering this txn's master fetches.
    master_replies: List[VerifyEvent] = field(default_factory=list)
    proofs: List[VerifyEvent] = field(default_factory=list)
    #: node -> PREPARED wal event.
    prepared: Dict[str, VerifyEvent] = field(default_factory=dict)
    #: node -> COMMIT/ABORT wal events.
    decisions: Dict[str, List[VerifyEvent]] = field(default_factory=dict)
    #: node -> END wal events.
    ends: Dict[str, List[VerifyEvent]] = field(default_factory=dict)
    #: server -> lock.grant events.
    grants: Dict[str, List[VerifyEvent]] = field(default_factory=dict)
    #: server -> lock.release events.
    releases: Dict[str, List[VerifyEvent]] = field(default_factory=dict)
    #: server -> storage access events.
    accesses: Dict[str, List[VerifyEvent]] = field(default_factory=dict)
    #: The coordinator's COMMIT/ABORT log record, if any.
    decision_record: Optional[VerifyEvent] = None

    @property
    def committed(self) -> bool:
        """Ground truth: the coordinator's durable decision, else the outcome."""
        if self.decision_record is not None:
            return self.decision_record.get("record_type") == _COMMIT
        return self.meta.committed

    def decision_time(self) -> Optional[float]:
        if self.decision_record is not None:
            return self.decision_record.time
        return None

    def final_proofs(self) -> Dict[str, VerifyEvent]:
        """query_id -> the last proof evaluated for that query."""
        final: Dict[str, VerifyEvent] = {}
        for proof in self.proofs:
            query_id = proof.get("query_id")
            current = final.get(query_id)
            if current is None or _time_of(proof) >= _time_of(current):
                final[query_id] = proof
        return final

    def repaired_after(self, time: Optional[float]) -> bool:
        """Did any 2PV policy-update round run at/after ``time``?"""
        if time is None:
            return bool(self.update_sends)
        return any(_time_of(send) >= time for send in self.update_sends)


def _time_of(event: VerifyEvent) -> float:
    return event.time if event.time is not None else math.inf


def _build_views(run: RunRecord) -> Dict[str, _TxnView]:
    views = {
        txn_id: _TxnView(meta)
        for txn_id, meta in sorted(run.transactions.items())
    }
    coordinators = set(run.coordinators)
    for event in run.events:
        # Category first: no view keeps a receive (30 % of the events), so
        # none of its fields is read.  This is the one pass over every event,
        # so it reads the pairs without the ``get`` layer.
        category = event.category
        if category == NET_RECV:
            continue
        data = event.data
        view = views.get(pair_value(data, "txn_id"))
        if view is None:
            continue
        if category == NET_SEND:
            kind = pair_value(data, "kind")
            if kind == msg.PREPARE_TO_COMMIT:
                view.prepare_sends.append(event)
            elif kind == msg.VOTE_REPLY:
                view.vote_sends.append(event)
            elif kind == msg.DECISION:
                view.decision_sends.append(event)
            elif kind == msg.POLICY_UPDATE:
                view.update_sends.append(event)
            elif kind == msg.QUERY_RESULT:
                view.query_results.setdefault(pair_value(data, "query_id"), []).append(event)
            elif kind == msg.MASTER_VERSION_REPLY:
                view.master_replies.append(event)
        elif category == PROOF_EVAL:
            view.proofs.append(event)
        elif category == LOCK_GRANT:
            view.grants.setdefault(pair_value(data, "server"), []).append(event)
        elif category == LOCK_RELEASE:
            view.releases.setdefault(pair_value(data, "server"), []).append(event)
        elif category == CAT_WAL:
            node = pair_value(data, "node")
            record_type = pair_value(data, "record_type")
            if record_type == _PREPARED:
                view.prepared.setdefault(node, event)
            elif record_type in (_COMMIT, _ABORT):
                view.decisions.setdefault(node, []).append(event)
                if node in coordinators and view.decision_record is None:
                    view.decision_record = event
            elif record_type == _END:
                view.ends.setdefault(node, []).append(event)
        elif category == CAT_STORAGE:
            view.accesses.setdefault(pair_value(data, "server"), []).append(event)
    return views


# -- 2PC/2PVC state machine (Algorithm 2; Fig. 7) -----------------------------


def check_state_machine(run: RunRecord, views: Dict[str, _TxnView]) -> List[Violation]:
    violations: List[Violation] = []
    for txn_id, view in views.items():
        decision = view.decision_record
        # Conflicting durable decisions anywhere (coordinator or participant).
        for node, records in sorted(view.decisions.items()):
            types = {record.get("record_type") for record in records}
            if len(types) > 1:
                violations.append(
                    make_violation(
                        rep.SM_DECISION_CONFLICT,
                        txn_id,
                        f"node {node} logged both commit and abort",
                        records,
                    )
                )
        if decision is not None:
            decided = decision.get("record_type")
            for node, records in sorted(view.decisions.items()):
                for record in records:
                    if record.get("record_type") != decided:
                        violations.append(
                            make_violation(
                                rep.SM_DECISION_CONFLICT,
                                txn_id,
                                f"node {node} decided {record.get('record_type')} but the "
                                f"coordinator decided {decided}",
                                [decision, record],
                            )
                        )
            if view.meta.committed != (decided == _COMMIT):
                violations.append(
                    make_violation(
                        rep.SM_DECISION_CONFLICT,
                        txn_id,
                        f"outcome says committed={view.meta.committed} but the "
                        f"coordinator logged {decided}",
                        [decision],
                    )
                )

        if not view.committed:
            continue

        # Unanimous-YES ⇒ commit; the contrapositive: a commit may not
        # follow any NO vote (Algorithm 2 step 3).
        for node, prepared in sorted(view.prepared.items()):
            if prepared.get("vote") == "no":
                violations.append(
                    make_violation(
                        rep.SM_COMMIT_AFTER_NO,
                        txn_id,
                        f"committed although {node} voted NO",
                        [prepared] + ([decision] if decision else []),
                    )
                )

        # Every participant asked to prepare must have voted (wire + log)
        # before a commit is legal.
        voters = {send.get("src") for send in view.vote_sends}
        for prepare in view.prepare_sends:
            participant = prepare.get("dst")
            if participant not in voters or participant not in view.prepared:
                violations.append(
                    make_violation(
                        rep.SM_COMMIT_WITHOUT_VOTE,
                        txn_id,
                        f"committed without a vote from {participant}",
                        [prepare] + ([decision] if decision else []),
                    )
                )

        # No vote may arrive after the commit decision was logged: a commit
        # means every vote was already collected.
        decision_time = view.decision_time()
        if decision_time is not None:
            for send in view.vote_sends:
                if _time_of(send) > decision_time:
                    violations.append(
                        make_violation(
                            rep.SM_VOTE_AFTER_DECISION,
                            txn_id,
                            f"vote from {send.get('src')} sent after the commit "
                            "decision was logged",
                            [send] + ([decision] if decision else []),
                        )
                    )

        # Truth and version agreement at commit.  PREPARED records carry the
        # *round-1* report; when 2PV repair rounds followed (POLICY_UPDATE
        # traffic), the final proofs — checked by the consistency pass — are
        # the authority instead, so these two checks only apply when no
        # repair happened.
        prepared_times = [_time_of(record) for record in view.prepared.values()]
        first_prepare = min(prepared_times) if prepared_times else None
        if not view.repaired_after(first_prepare):
            for node, prepared in sorted(view.prepared.items()):
                if prepared.get("truth") is False:
                    violations.append(
                        make_violation(
                            rep.SM_COMMIT_FALSE_TRUTH,
                            txn_id,
                            f"committed although {node} reported proof truth FALSE "
                            "and no repair round ran",
                            [prepared] + ([decision] if decision else []),
                        )
                    )
            by_admin: Dict[str, Dict[int, List[VerifyEvent]]] = defaultdict(dict)
            for node, prepared in sorted(view.prepared.items()):
                versions = prepared.get("versions") or {}
                for admin, version in sorted(versions.items()):
                    by_admin[admin].setdefault(version, []).append(prepared)
            for admin, by_version in sorted(by_admin.items()):
                if len(by_version) > 1:
                    evidence = [
                        record for records in by_version.values() for record in records
                    ]
                    violations.append(
                        make_violation(
                            rep.SM_VERSION_DISAGREEMENT,
                            txn_id,
                            f"participants prepared under different versions of "
                            f"{admin}'s policy ({sorted(by_version)}) and committed "
                            "without repair",
                            evidence + ([decision] if decision else []),
                        )
                    )
    return violations


# -- φ/ψ classification and safety (Defs. 2-4) --------------------------------


def check_consistency(run: RunRecord, views: Dict[str, _TxnView]) -> List[Violation]:
    violations: List[Violation] = []
    for txn_id, view in views.items():
        if not view.committed:
            continue
        final = view.final_proofs()
        if not final:
            continue

        # Def. 4 (trusted/safe): every proof backing a commit must grant.
        for query_id, proof in sorted(final.items()):
            if proof.get("granted") is False:
                violations.append(
                    make_violation(
                        rep.CONSISTENCY_UNSAFE_COMMIT,
                        txn_id,
                        f"committed although the final proof for {query_id} was DENIED",
                        [proof],
                    )
                )

        # Def. 2 (view consistency φ): within each admin domain, all final
        # proofs of the transaction must use one policy version.
        by_admin: Dict[str, Dict[int, List[VerifyEvent]]] = defaultdict(dict)
        for proof in final.values():
            admin = proof.get("admin")
            by_admin[admin].setdefault(proof.get("version"), []).append(proof)
        for admin, by_version in sorted(by_admin.items()):
            if len(by_version) > 1:
                evidence = [proof for proofs in by_version.values() for proof in proofs]
                violations.append(
                    make_violation(
                        rep.CONSISTENCY_PHI,
                        txn_id,
                        f"final proofs under {admin} span versions "
                        f"{sorted(by_version)} (view consistency, Def. 2)",
                        evidence,
                    )
                )
                continue

            # Def. 3 (global consistency ψ), GLOBAL commits only: the single
            # version used must have been the master's latest at some point
            # in the commit window.  The window form avoids TOCTOU false
            # positives when a publication lands between the master fetch
            # and the decision: the version a TM acts on is the one the
            # master *answered with*, up to a WAN round trip before the
            # proof is evaluated, so the window opens at the last master
            # reply sent at or before the first final proof (approaches
            # that validate incrementally evaluate proofs far from commit)
            # and falls back to the proof time on runs with no recorded
            # fetch.
            if view.meta.consistency != "global":
                continue
            proofs = next(iter(by_version.values()))
            version = next(iter(by_version))
            first_proof_at = min(_time_of(proof) for proof in by_version[version])
            fetch_times = [
                _time_of(reply)
                for reply in view.master_replies
                if _time_of(reply) <= first_proof_at
            ]
            window_start = max(fetch_times) if fetch_times else first_proof_at
            decision_time = view.decision_time()
            window_end = (
                decision_time
                if decision_time is not None
                else max(_time_of(proof) for proof in by_version[version])
            )
            low = run.version_at(admin, window_start)
            high = run.version_at(admin, window_end)
            if low is None or high is None:
                continue
            if not (low <= version <= high):
                violations.append(
                    make_violation(
                        rep.CONSISTENCY_PSI,
                        txn_id,
                        f"committed under {admin} v{version} but the master's "
                        f"latest was v{low}..v{high} across the commit window "
                        "(global consistency, Def. 3)",
                        proofs + ([view.decision_record] if view.decision_record else []),
                    )
                )
    return violations


# -- proof freshness per approach (Defs. 5-9) ---------------------------------


def _result_times(view: _TxnView) -> Dict[str, float]:
    """query_id -> time its result was sent back to the coordinator."""
    times: Dict[str, float] = {}
    for query_id, sends in view.query_results.items():
        times[query_id] = max(_time_of(send) for send in sends)
    return times


def check_freshness(run: RunRecord, views: Dict[str, _TxnView]) -> List[Violation]:
    violations: List[Violation] = []
    for txn_id, view in views.items():
        if not view.committed:
            continue
        approach = view.meta.approach
        exec_proofs = [p for p in view.proofs if p.get("phase") == "execution"]
        commit_proofs = [p for p in view.proofs if p.get("phase") == "commit"]
        result_times = _result_times(view)
        final = view.final_proofs()

        if approach == "deferred":
            # Def. 5: proofs are evaluated only at commit time.
            code = rep.FRESHNESS_DEFERRED
            for proof in exec_proofs:
                violations.append(
                    make_violation(
                        code,
                        txn_id,
                        "Deferred evaluated a proof during execution (Def. 5 "
                        "defers all proofs to commit)",
                        [proof],
                    )
                )
            last_result = max(result_times.values(), default=None)
            for query_id in sorted(result_times):
                proof = final.get(query_id)
                if proof is None:
                    violations.append(
                        make_violation(
                            code,
                            txn_id,
                            f"committed with no commit-time proof for {query_id}",
                            list(view.query_results.get(query_id, ())),
                        )
                    )
                elif last_result is not None and _time_of(proof) < last_result:
                    violations.append(
                        make_violation(
                            code,
                            txn_id,
                            f"commit-time proof for {query_id} predates the end of "
                            "execution",
                            [proof] + list(view.query_results.get(query_id, ())),
                        )
                    )

        elif approach == "punctual":
            # Def. 6: a proof accompanies every query as it executes, and
            # proofs are re-evaluated at commit (two-test discipline).
            code = rep.FRESHNESS_PUNCTUAL
            exec_by_query: Dict[str, List[VerifyEvent]] = defaultdict(list)
            for proof in exec_proofs:
                exec_by_query[proof.get("query_id")].append(proof)
            for query_id, sent_at in sorted(result_times.items()):
                candidates = exec_by_query.get(query_id, [])
                if not candidates:
                    violations.append(
                        make_violation(
                            code,
                            txn_id,
                            f"query {query_id} executed without a punctual proof "
                            "(Def. 6)",
                            list(view.query_results.get(query_id, ())),
                        )
                    )
                elif min(_time_of(proof) for proof in candidates) > sent_at:
                    violations.append(
                        make_violation(
                            code,
                            txn_id,
                            f"punctual proof for {query_id} was evaluated after the "
                            "query result was already sent",
                            candidates + list(view.query_results.get(query_id, ())),
                        )
                    )
            if result_times and not commit_proofs:
                violations.append(
                    make_violation(
                        code,
                        txn_id,
                        "committed without the commit-time re-evaluation Punctual "
                        "requires (Def. 6)",
                        view.prepare_sends,
                    )
                )

        elif approach == "incremental":
            # Def. 7: punctual proofs per step, but *no* commit-time
            # validation — 2PVC degrades to 2PC.
            code = rep.FRESHNESS_INCREMENTAL
            exec_queries = {proof.get("query_id") for proof in exec_proofs}
            for query_id in sorted(result_times):
                if query_id not in exec_queries:
                    violations.append(
                        make_violation(
                            code,
                            txn_id,
                            f"query {query_id} executed without an incremental "
                            "punctual proof (Def. 7)",
                            list(view.query_results.get(query_id, ())),
                        )
                    )
            for proof in commit_proofs:
                violations.append(
                    make_violation(
                        code,
                        txn_id,
                        "Incremental Punctual ran a commit-time proof although its "
                        "2PVC does no policy validation (Def. 7)",
                        [proof],
                    )
                )

        elif approach == "continuous":
            # Defs. 8-9: no execution-phase proofs; instead every completed
            # query's proof is re-evaluated on each subsequent query, so by
            # the end of execution every proof is at least as fresh as the
            # last query.
            code = rep.FRESHNESS_CONTINUOUS
            for proof in exec_proofs:
                violations.append(
                    make_violation(
                        code,
                        txn_id,
                        "Continuous evaluated an execution-phase proof (proofs "
                        "ride the per-query 2PV rounds, Defs. 8-9)",
                        [proof],
                    )
                )
            last_result = max(result_times.values(), default=None)
            for query_id in sorted(result_times):
                proof = final.get(query_id)
                if proof is None:
                    violations.append(
                        make_violation(
                            code,
                            txn_id,
                            f"committed with no continuous proof for {query_id}",
                            list(view.query_results.get(query_id, ())),
                        )
                    )
                elif last_result is not None and _time_of(proof) < last_result:
                    violations.append(
                        make_violation(
                            code,
                            txn_id,
                            f"continuous proof for {query_id} is stale: it predates "
                            "the last executed query (Defs. 8-9)",
                            [proof] + list(view.query_results.get(query_id, ())),
                        )
                    )
    return violations


# -- strict-2PL lock discipline -----------------------------------------------


def _crash_times(run: RunRecord) -> Dict[str, List[float]]:
    """Node → times it crashed (``fault.crash`` trace events), sorted."""
    crashes: Dict[str, List[float]] = defaultdict(list)
    for event in run.events:
        if event.category == FAULT_CRASH:
            node = event.get("node")
            if node is not None and event.time is not None:
                crashes[node].append(event.time)
    for times in crashes.values():
        times.sort()
    return crashes


def check_locks(run: RunRecord, views: Dict[str, _TxnView]) -> List[Violation]:
    violations: List[Violation] = []
    crashes = _crash_times(run)
    for txn_id, view in views.items():
        servers = sorted(set(view.grants) | set(view.releases) | set(view.accesses))
        for server in servers:
            grants = view.grants.get(server, [])
            releases = view.releases.get(server, [])
            accesses = view.accesses.get(server, [])
            granted_keys: Dict[str, List[VerifyEvent]] = defaultdict(list)
            for grant in grants:
                granted_keys[grant.get("key")].append(grant)
            released_keys = {release.get("key") for release in releases}

            # Workspace accesses must be covered by a lock of the right mode.
            for access in accesses:
                kind = access.get("kind")
                if kind == "apply":
                    continue
                key = access.get("key")
                key_grants = granted_keys.get(key, [])
                if not key_grants:
                    violations.append(
                        make_violation(
                            rep.LOCK_ACCESS_WITHOUT_LOCK,
                            txn_id,
                            f"{kind} of {key!r} on {server} without any lock grant",
                            [access],
                        )
                    )
                elif kind == "write" and not any(
                    grant.get("mode") == "X" for grant in key_grants
                ):
                    violations.append(
                        make_violation(
                            rep.LOCK_MODE_MISMATCH,
                            txn_id,
                            f"write of {key!r} on {server} under a shared lock only",
                            [access] + key_grants,
                        )
                    )

            # Strict 2PL: the shrink phase is atomic at the decision — no
            # grant may follow the first release.
            if releases:
                first_release = min(releases, key=_time_of)
                for grant in grants:
                    if _time_of(grant) > _time_of(first_release):
                        violations.append(
                            make_violation(
                                rep.LOCK_GRANT_AFTER_RELEASE,
                                txn_id,
                                f"lock on {grant.get('key')!r} granted on {server} "
                                "after the transaction began releasing (2PL shrink "
                                "phase)",
                                [grant, first_release],
                            )
                        )

            # Everything granted must eventually be released — unless the
            # server crashed at/after the grant: its volatile lock table
            # died with it, so there is nothing left to release (the crash
            # teardown deliberately emits no lock.release records).
            server_crashes = crashes.get(server, ())
            for key, key_grants in sorted(granted_keys.items()):
                if key not in released_keys:
                    first_grant = min(_time_of(grant) for grant in key_grants)
                    if any(when >= first_grant for when in server_crashes):
                        continue
                    violations.append(
                        make_violation(
                            rep.LOCK_UNRELEASED,
                            txn_id,
                            f"lock on {key!r} at {server} never released",
                            key_grants,
                        )
                    )
    return violations


# -- WAL ordering (Section V-C) ------------------------------------------------


def check_wal(run: RunRecord, views: Dict[str, _TxnView]) -> List[Violation]:
    violations: List[Violation] = []
    coordinators = set(run.coordinators)
    for txn_id, view in views.items():
        # "a participant must forcibly log ... along with its vote" before
        # the vote travels (Section V-C).
        for send in view.vote_sends:
            server = send.get("src")
            prepared = view.prepared.get(server)
            if prepared is None or _time_of(prepared) > _time_of(send):
                evidence = [send] + ([prepared] if prepared is not None else [])
                violations.append(
                    make_violation(
                        rep.WAL_VOTE_BEFORE_PREPARED,
                        txn_id,
                        f"{server} sent its vote before forcing a PREPARED record",
                        evidence,
                    )
                )

        # The coordinator logs the decision before notifying participants.
        decision = view.decision_record
        if decision is not None and view.decision_sends:
            first_send = min(view.decision_sends, key=_time_of)
            if _time_of(decision) > _time_of(first_send):
                violations.append(
                    make_violation(
                        rep.WAL_DECISION_ORDER,
                        txn_id,
                        "decision messages were sent before the coordinator logged "
                        "the decision",
                        [decision, first_send],
                    )
                )

        # END closes the coordinator's record *after* the decision (Fig. 7).
        for node, end_records in sorted(view.ends.items()):
            if node not in coordinators:
                continue
            node_decisions = view.decisions.get(node, [])
            if not node_decisions:
                continue
            decision_lsn = min(record.get("lsn") for record in node_decisions)
            for end in end_records:
                if end.get("lsn") < decision_lsn:
                    violations.append(
                        make_violation(
                            rep.WAL_END_BEFORE_DECISION,
                            txn_id,
                            f"END record on {node} precedes the decision record",
                            [end] + node_decisions,
                        )
                    )

        # Applying a workspace to committed state requires a durable COMMIT.
        for server, accesses in sorted(view.accesses.items()):
            applies = [access for access in accesses if access.get("kind") == "apply"]
            if not applies:
                continue
            server_decisions = view.decisions.get(server, [])
            if not any(
                record.get("record_type") == _COMMIT for record in server_decisions
            ):
                violations.append(
                    make_violation(
                        rep.WAL_APPLY_WITHOUT_COMMIT,
                        txn_id,
                        f"{server} applied writes without a logged COMMIT",
                        applies[:3] + server_decisions,
                    )
                )
    return violations


# -- serializability (direct serialization graph) ------------------------------


def check_serializability(run: RunRecord, views: Dict[str, _TxnView]) -> List[Violation]:
    """Only committed accesses make edges, and every committed transaction
    has a view: a server's history is its views' accesses in event order
    (``tests/verify/serializability_oracle.py`` scans every event instead)."""
    committed = {txn_id for txn_id, view in views.items() if view.committed}
    per_server: Dict[str, List[VerifyEvent]] = defaultdict(list)
    for txn_id, view in views.items():
        if txn_id in committed:
            for server, accesses in view.accesses.items():
                per_server[server] += accesses
    histories = []
    for server in sorted(per_server):
        accesses = per_server[server]
        accesses.sort(key=attrgetter("event_id"))  # transaction order back to event order
        ordered = sorted((a.data for a in accesses), key=lambda d: pair_value(d, "sequence"))
        histories.append(
            [
                (pair_value(d, "txn_id"), pair_value(d, "key"), pair_value(d, "kind"))
                for d in ordered
            ]
        )
    edges = conflict_edges_from_histories(histories, committed)
    cycle = find_cycle(edges)
    if cycle is None:
        return []
    members = set(cycle)
    evidence = [
        event
        for server in sorted(per_server)
        for event in per_server[server]
        if event.get("txn_id") in members and event.get("kind") != "apply"
    ]
    return [
        make_violation(
            rep.SERIALIZABILITY_CYCLE,
            cycle[0],
            "committed schedule is not conflict-serializable: cycle "
            + " -> ".join(cycle),
            evidence[:12],
        )
    ]


#: Every conformance check, in reporting order.
CHECKS: Tuple[Tuple[str, Callable[[RunRecord, Dict[str, _TxnView]], List[Violation]]], ...] = (
    ("state-machine", check_state_machine),
    ("consistency", check_consistency),
    ("freshness", check_freshness),
    ("locks", check_locks),
    ("wal", check_wal),
    ("serializability", check_serializability),
)


def check_run(
    run: RunRecord, checks: Optional[Sequence[str]] = None
) -> VerificationReport:
    """Run every (or the named) conformance check over one run record."""
    views = _build_views(run)
    selected = [
        (name, check) for name, check in CHECKS if checks is None or name in checks
    ]
    report = VerificationReport(
        events_checked=len(run.events),
        transactions_checked=len(run.transactions),
        checks_run=tuple(name for name, _ in selected),
    )
    for _, check in selected:
        report.violations.extend(check(run, views))
    report.violations.sort(key=lambda violation: (violation.code, violation.txn_id))
    return report
