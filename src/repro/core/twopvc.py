"""Two-Phase Validation Commit — Algorithm 2 of the paper.

2PVC integrates 2PV into 2PC's voting phase: on ``Prepare-to-Commit`` each
participant reports **three** values — the YES/NO integrity vote (2PC), the
TRUE/FALSE proof truth value (2PV), and the (version, policy-id) pairs used
(2PV).  The TM aborts on any NO; otherwise it repairs version
inconsistencies exactly as 2PV does, then COMMITs on all-TRUE.

``validate=False`` degrades 2PVC to plain 2PC (no proof evaluation, no
version repair) — used by the Incremental Punctual approach ("2PVC does not
do policy validation and acts like 2PC") and by Continuous under view
consistency, as well as the paper's 2PC baseline (Fig. 7).

The decision phase honours the configured logging variant (presumed
nothing/abort/commit, Section V-C).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional

from repro.cloud import messages as msg
from repro.cloud.config import MasterFetchMode
from repro.core.consistency import ConsistencyLevel
from repro.core.context import TxnContext
from repro.core.twopv import (
    MAX_VALIDATION_ROUNDS,
    compute_targets,
    coordinator_recorder,
    find_outdated,
    ingest_report,
)
from repro.db.wal import LogRecordType
from repro.errors import AbortReason
from repro.obs.spans import KIND_LOG, KIND_PHASE, PHASE_COMMIT
from repro.sim.events import Event
from repro.transactions.states import Decision, Vote


@dataclass
class CommitResult:
    """Outcome of a 2PVC (or degraded 2PC) run."""

    decision: Decision
    rounds: int
    abort_reason: Optional[AbortReason] = None
    votes: Dict[str, Vote] = field(default_factory=dict)
    truth_by_server: Dict[str, bool] = field(default_factory=dict)

    @property
    def committed(self) -> bool:
        return self.decision is Decision.COMMIT


def broadcast_decision(
    tm: Any,
    ctx: TxnContext,
    decision: Decision,
    participants: List[str],
) -> Generator[Event, Any, None]:
    """Decision phase shared by 2PC/2PVC (and mid-execution aborts).

    Follows Fig. 7 with the configured variant's force/ack rules: the
    coordinator logs the decision (forced or not), notifies every
    participant, collects acknowledgements where the variant requires them,
    then appends a non-forced end record.
    """
    variant = tm.config.commit_variant
    obs = coordinator_recorder(tm)
    parent = ctx.phase_span or ctx.root_span
    record_type = LogRecordType.COMMIT if decision is Decision.COMMIT else LogRecordType.ABORT
    if variant.coordinator_forces(decision):
        log_span = obs.start(
            ctx.txn_id, "log.force", KIND_LOG, tm.name, tm.env.now, parent=parent
        )
        yield tm.env.timeout(tm.config.log_force_time)
        tm.wal.force(record_type, ctx.txn_id, tm.env.now)
        obs.finish(log_span, tm.env.now, record=record_type.value)
    else:
        tm.wal.append(record_type, ctx.txn_id, tm.env.now)

    expects_ack = variant.acknowledges(decision)
    participant_forces = variant.participant_forces(decision)
    # Retry-capable RPC when the TM provides one (bare protocol stubs in
    # unit tests don't); identical to tm.request with retries disabled.
    rpc = getattr(tm, "rpc_event", tm.request)
    ack_events = []
    for server in participants:
        if expects_ack:
            ack_events.append(
                rpc(
                    server,
                    msg.DECISION,
                    msg.CAT_DECISION,
                    timeout=tm.config.request_timeout,
                    span=parent,
                    txn_id=ctx.txn_id,
                    decision=decision,
                    force=participant_forces,
                    ack=True,
                )
            )
        else:
            tm.send(
                server,
                msg.DECISION,
                msg.CAT_DECISION,
                span=parent,
                txn_id=ctx.txn_id,
                decision=decision,
                force=participant_forces,
                ack=False,
            )
    # The decision is already durable in the coordinator's log, so a lost
    # acknowledgement must never unwind it: swallow ack timeouts and let
    # the in-doubt participant learn the outcome through the termination
    # protocol (Section V-C).  Acks are awaited individually (they are all
    # in flight concurrently; waiting is sequential but overlapping).
    from repro.errors import RequestTimeout

    for ack_event in ack_events:
        try:
            yield ack_event
        except RequestTimeout:
            pass
    tm.wal.append(LogRecordType.END, ctx.txn_id, tm.env.now)


def run_2pvc(
    tm: Any,
    ctx: TxnContext,
    validate: bool = True,
    master_mode: Optional[MasterFetchMode] = None,
) -> Generator[Event, Any, CommitResult]:
    """Algorithm 2, coordinator side.

    With ``validate=True`` this is full 2PVC (integrity votes + proof truth
    + policy-version repair).  With ``validate=False`` it is plain 2PC.
    """
    participants = [
        server for server in ctx.participants if ctx.queries_by_server.get(server)
    ]
    if not participants:
        return CommitResult(Decision.COMMIT, rounds=0)

    mode = master_mode or tm.config.master_fetch_mode
    timeout = tm.config.request_timeout
    variant = tm.config.commit_variant

    # The commit phase span covers voting, validation repair, and the
    # decision broadcast.  As in 2PV, the previous phase span is restored
    # on every exit path so timeouts do not leak a stale parent.
    obs = coordinator_recorder(tm)
    prev_phase = ctx.phase_span
    phase = obs.start(
        ctx.txn_id,
        PHASE_COMMIT,
        KIND_PHASE,
        tm.name,
        tm.env.now,
        parent=prev_phase if prev_phase is not None else ctx.root_span,
        validate=validate,
    )
    if phase is not None:
        ctx.phase_span = phase
    rounds = 0
    try:
        if variant.coordinator_initial_force:  # PrC's collecting record
            log_span = obs.start(
                ctx.txn_id,
                "log.force",
                KIND_LOG,
                tm.name,
                tm.env.now,
                parent=ctx.phase_span or ctx.root_span,
            )
            yield tm.env.timeout(tm.config.log_force_time)
            tm.wal.force(LogRecordType.BEGIN, ctx.txn_id, tm.env.now, collecting=True)
            obs.finish(log_span, tm.env.now, record="begin")

        # -- voting phase (round 1): Prepare-to-Commit -----------------------------
        rpc = getattr(tm, "rpc_event", tm.request)
        events = [
            rpc(
                server,
                msg.PREPARE_TO_COMMIT,
                msg.CAT_VOTE,
                timeout=timeout,
                span=ctx.phase_span or ctx.root_span,
                txn_id=ctx.txn_id,
                validate=validate,
            )
            for server in participants
        ]
        replies = yield tm.env.all_of(events)
        votes: Dict[str, Vote] = {}
        reports: Dict[str, Dict[str, Any]] = {}
        for server, reply in zip(participants, replies):
            votes[server] = reply["vote"]
            reports[server] = ingest_report(ctx, server, reply)
        rounds = 1

        # Algorithm 2 step 3: any NO on integrity aborts immediately.
        if any(vote is Vote.NO for vote in votes.values()):
            result = CommitResult(
                Decision.ABORT,
                rounds,
                AbortReason.INTEGRITY_VIOLATION,
                votes,
                {server: report["truth"] for server, report in reports.items()},
            )
            yield from broadcast_decision(tm, ctx, Decision.ABORT, participants)
            return result

        if not validate:
            result = CommitResult(Decision.COMMIT, rounds, None, votes)
            yield from broadcast_decision(tm, ctx, Decision.COMMIT, participants)
            return result

        # -- validation loop (Algorithm 2 steps 5-14) --------------------------------
        master_fetched = False
        decision: Decision
        abort_reason: Optional[AbortReason] = None
        while True:
            if ctx.consistency is ConsistencyLevel.GLOBAL and (
                mode is MasterFetchMode.PER_ROUND or not master_fetched
            ):
                yield from tm.fetch_master_versions(ctx)
                master_fetched = True

            targets = compute_targets(ctx, reports)
            outdated = find_outdated(ctx, reports, targets)

            if not outdated:
                if all(report["truth"] for report in reports.values()):
                    decision = Decision.COMMIT
                else:
                    decision = Decision.ABORT
                    abort_reason = AbortReason.PROOF_FAILED
                break

            if rounds >= MAX_VALIDATION_ROUNDS:
                decision = Decision.ABORT
                abort_reason = AbortReason.POLICY_INCONSISTENCY
                break

            stale_servers = list(outdated)
            events = [
                rpc(
                    server,
                    msg.POLICY_UPDATE,
                    msg.CAT_UPDATE,
                    timeout=timeout,
                    span=ctx.phase_span or ctx.root_span,
                    txn_id=ctx.txn_id,
                    policies=outdated[server],
                )
                for server in stale_servers
            ]
            replies = yield tm.env.all_of(events)
            for server, reply in zip(stale_servers, replies):
                reports[server] = ingest_report(ctx, server, reply)
            rounds += 1

        result = CommitResult(
            decision,
            rounds,
            abort_reason,
            votes,
            {server: report["truth"] for server, report in reports.items()},
        )
        yield from broadcast_decision(tm, ctx, decision, participants)
        return result
    finally:
        obs.finish(phase, tm.env.now, rounds=rounds)
        ctx.phase_span = prev_phase
