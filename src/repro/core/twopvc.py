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
from repro.core.context import TxnContext
from repro.core.twopv import CoordinatorPhase, collect, repair_versions
from repro.db.wal import LogRecordType
from repro.errors import AbortReason, RequestTimeout
from repro.obs.spans import PHASE_COMMIT
from repro.sim.events import Event
from repro.transactions.effects import force_log
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
    then appends a non-forced end record.  A coordinator that went down
    while forcing the decision announces nothing: the decision is not
    durable, and participants resolve by presumption.
    """
    variant = tm.config.commit_variant
    parent = ctx.phase_span or ctx.root_span
    record_type = LogRecordType.for_decision(decision)
    if variant.coordinator_forces(decision):
        if not (yield from force_log(tm, record_type, ctx.txn_id, parent)):
            return
    else:
        tm.wal.append(record_type, ctx.txn_id, tm.env.now)

    expects_ack = variant.acknowledges(decision)
    participant_forces = variant.participant_forces(decision)
    ack_events = []
    for server in participants:
        if expects_ack:
            ack_events.append(
                tm.rpc_event(
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

    Voting phase (``Prepare-to-Commit``; any NO aborts at once), then — with
    ``validate=True`` — the validation phase of
    :func:`repro.core.twopv.repair_versions`, the very loop 2PV runs (Section V
    builds 2PVC by integrating 2PV into 2PC's voting phase; version repair is
    not re-specified), then the decision phase.  With ``validate=False`` it is
    plain 2PC.  The commit phase span covers all three.
    """
    participants = ctx.active_participants()
    if not participants:
        return CommitResult(Decision.COMMIT, rounds=0)

    reports: Dict[str, Dict[str, Any]] = {}
    with CoordinatorPhase(tm, ctx, PHASE_COMMIT, validate=validate) as phase:
        if tm.config.commit_variant.coordinator_initial_force:  # PrC's collecting record
            durable = yield from force_log(
                tm, LogRecordType.BEGIN, ctx.txn_id, phase.span, lambda: {"collecting": True}
            )
            if not durable:  # crashed first: no vote may be solicited
                return CommitResult(Decision.ABORT, rounds=0)

        replies = yield from collect(
            tm,
            ctx,
            reports,
            msg.PREPARE_TO_COMMIT,
            msg.CAT_VOTE,
            {server: {"validate": validate} for server in participants},
        )
        votes = {server: reply["vote"] for server, reply in replies.items()}
        phase.rounds = 1

        # Algorithm 2 step 3: any NO on integrity aborts immediately.
        if any(vote is Vote.NO for vote in votes.values()):
            abort_reason: Optional[AbortReason] = AbortReason.INTEGRITY_VIOLATION
        elif validate:
            abort_reason = yield from repair_versions(
                tm, ctx, phase, reports, master_mode or tm.config.master_fetch_mode
            )
        else:
            abort_reason = None
        result = CommitResult(
            Decision.COMMIT if abort_reason is None else Decision.ABORT,
            phase.rounds,
            abort_reason,
            votes,
            {server: report["truth"] for server, report in reports.items()},
        )
        yield from broadcast_decision(tm, ctx, result.decision, participants)
        return result
