"""Two-Phase Validation — Algorithm 1 of the paper.

2PV establishes, at the coordinator (TM), whether the proofs of
authorization of a transaction are TRUE under *consistent* policy versions
across all participants:

1. **Collection phase** — the TM sends ``Prepare-to-Validate``; each
   participant re-evaluates its proofs with the freshest policies it holds
   and replies with the truth value plus the (version, policy-id) pairs it
   used.
2. **Validation phase** — the TM finds the target version per domain (the
   largest reported version under view consistency; the master server's
   version under global consistency).  Participants behind the target get
   an ``Update`` carrying the newer policy, re-evaluate, and reply — the
   collection phase repeats until versions agree, then any FALSE ⇒ ABORT,
   all TRUE ⇒ CONTINUE.

The generator is driven by the transaction manager's process; ``tm`` is the
coordinator surface of :class:`repro.transactions.manager.TransactionManager`
(``env``, ``config``, ``metrics``, ``rpc_event``, ``fetch_master_versions``).
The validation phase — fetch the master's word, compute targets, push
``Update`` to whoever is behind, collect again — is :func:`repair_versions`,
the one loop 2PV and 2PVC (:mod:`repro.core.twopvc`) both drive.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Mapping, Optional

from repro.cloud import messages as msg
from repro.cloud.config import MasterFetchMode
from repro.core.consistency import ConsistencyLevel
from repro.core.context import TxnContext
from repro.errors import AbortReason
from repro.obs.spans import KIND_PHASE, PHASE_VALIDATE
from repro.policy.policy import Policy, PolicyId
from repro.sim.events import Event

#: Safety valve on validation rounds (the paper leaves them unbounded): a
#: transaction still chasing fresh policy versions after this many rounds
#: aborts with ``POLICY_INCONSISTENCY``.
MAX_VALIDATION_ROUNDS = 50


class CoordinatorPhase:
    """``with`` block for one coordinator phase (validate / commit).

    Opens the phase span under the previous phase (Continuous runs 2PV
    *during* execution, so the parent may be the execute phase) or the root,
    makes it ``ctx.phase_span``, and on every exit path — request timeouts
    included — closes it with the ``rounds`` reached and restores the
    previous phase span, so a timeout cannot leak a stale parent.
    """

    def __init__(self, tm: Any, ctx: TxnContext, name: str, **attrs: Any) -> None:
        self.tm = tm
        self.ctx = ctx
        #: Collection rounds completed so far (the span's ``rounds`` attribute).
        self.rounds = 0
        self.previous = ctx.phase_span
        self.span = tm.metrics.spans.start(
            ctx.txn_id,
            name,
            KIND_PHASE,
            tm.name,
            tm.env.now,
            parent=self.previous if self.previous is not None else ctx.root_span,
            **attrs,
        )
        if self.span is not None:
            ctx.phase_span = self.span

    def __enter__(self) -> "CoordinatorPhase":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.tm.metrics.spans.finish(self.span, self.tm.env.now, rounds=self.rounds)
        self.ctx.phase_span = self.previous


@dataclass
class ValidationResult:
    """Outcome of a 2PV run: CONTINUE or ABORT, plus accounting."""

    decision: str  # "continue" | "abort"
    rounds: int
    abort_reason: Optional[AbortReason] = None
    truth_by_server: Dict[str, bool] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.decision == "continue"


def ingest_report(ctx: TxnContext, server: str, payload: Any) -> Dict[str, Any]:
    """Fold one participant reply into the coordinator state."""
    versions: Dict[PolicyId, int] = dict(payload["versions"])
    for policy_id, version in versions.items():
        ctx.record_version(policy_id, server, version)
    for policy in payload["policies"].values():
        ctx.learn_policy(policy)
    for proof in payload["proofs"]:
        ctx.record_proof(proof)
    return {"truth": bool(payload["truth"]), "versions": versions}


def compute_targets(
    ctx: TxnContext,
    reports: Dict[str, Dict[str, Any]],
) -> Dict[PolicyId, int]:
    """Target version per domain: Algorithm 1 step 3 (or the master's word).

    Under view consistency the target is the largest version reported by
    any participant this round; under global consistency it is whatever the
    master said (``ctx.master_versions``, refreshed by the caller).
    """
    if ctx.consistency is ConsistencyLevel.GLOBAL:
        targets: Dict[PolicyId, int] = {}
        for report in reports.values():
            for policy_id in report["versions"]:
                if policy_id in ctx.master_versions:
                    targets[policy_id] = ctx.master_versions[policy_id]
        return targets
    targets = {}
    for report in reports.values():
        for policy_id, version in report["versions"].items():
            if version > targets.get(policy_id, -1):
                targets[policy_id] = version
    return targets


def find_outdated(
    ctx: TxnContext,
    reports: Dict[str, Dict[str, Any]],
    targets: Dict[PolicyId, int],
) -> Dict[str, List[Policy]]:
    """Participants behind a target, with the policy bodies they need."""
    outdated: Dict[str, List[Policy]] = {}
    for server, report in reports.items():
        needed: List[Policy] = []
        for policy_id, version in report["versions"].items():
            target = targets.get(policy_id, version)
            if version < target:
                body = ctx.policies_known.get(policy_id)
                if body is not None and body.version >= target:
                    needed.append(body)
        if needed:
            outdated[server] = needed
    return outdated


def collect(
    tm: Any,
    ctx: TxnContext,
    reports: Dict[str, Dict[str, Any]],
    kind: str,
    category: str,
    payloads: Mapping[str, Mapping[str, Any]],
) -> Generator[Event, Any, Dict[str, Any]]:
    """One collection round: ``kind`` to every server of ``payloads`` at once.

    Folds each reply into the coordinator state and ``reports``, in the order
    of ``payloads``, and returns server → reply; fails with the first
    :class:`~repro.errors.RequestTimeout` once the TM's retry budget is spent.
    """
    replies = yield tm.env.all_of(
        [
            tm.rpc_event(
                server,
                kind,
                category,
                timeout=tm.config.request_timeout,
                span=ctx.phase_span or ctx.root_span,
                txn_id=ctx.txn_id,
                **payload,
            )
            for server, payload in payloads.items()
        ]
    )
    for server, reply in zip(payloads, replies):
        reports[server] = ingest_report(ctx, server, reply)
    return dict(zip(payloads, replies))


def repair_versions(
    tm: Any,
    ctx: TxnContext,
    phase: CoordinatorPhase,
    reports: Dict[str, Dict[str, Any]],
    mode: MasterFetchMode,
) -> Generator[Event, Any, Optional[AbortReason]]:
    """The validation phase: Algorithm 1 steps 3–11, Algorithm 2 steps 5–14.

    Until every participant's reported versions meet the targets: fetch the
    master's versions (global consistency; once, or per round, by ``mode``),
    push ``Update`` to the participants behind and fold their re-evaluated
    reports into ``reports``, counting each round on ``phase``.  Returns
    ``None`` when the versions agree and every proof is TRUE, otherwise why
    the transaction must abort (``PROOF_FAILED``; ``POLICY_INCONSISTENCY``
    after :data:`MAX_VALIDATION_ROUNDS`).
    """
    master_fetched = False
    while True:
        if ctx.consistency is ConsistencyLevel.GLOBAL and (
            mode is MasterFetchMode.PER_ROUND or not master_fetched
        ):
            yield from tm.fetch_master_versions(ctx)
            master_fetched = True

        outdated = find_outdated(ctx, reports, compute_targets(ctx, reports))
        if not outdated:
            if all(report["truth"] for report in reports.values()):
                return None
            return AbortReason.PROOF_FAILED
        if phase.rounds >= MAX_VALIDATION_ROUNDS:
            return AbortReason.POLICY_INCONSISTENCY

        # Push updates to the stale participants and re-run the collection
        # phase for them (Algorithm 1 steps 10-11).
        yield from collect(
            tm,
            ctx,
            reports,
            msg.POLICY_UPDATE,
            msg.CAT_UPDATE,
            {server: {"policies": needed} for server, needed in outdated.items()},
        )
        phase.rounds += 1


def run_2pv(
    tm: Any,
    ctx: TxnContext,
    master_mode: Optional[MasterFetchMode] = None,
) -> Generator[Event, Any, ValidationResult]:
    """Algorithm 1, coordinator side.  Returns a :class:`ValidationResult`.

    Collection phase (``Prepare-to-Validate`` to every participant), then the
    validation phase of :func:`repair_versions`; CONTINUE iff it finds
    consistent versions and all-TRUE proofs.  ``master_mode`` controls how
    often the master version is retrieved under global consistency
    (Section V-A allows once or per round); defaults to the cloud config's
    setting.
    """
    participants = ctx.active_participants()
    if not participants:
        return ValidationResult("continue", rounds=0)

    reports: Dict[str, Dict[str, Any]] = {}
    with CoordinatorPhase(tm, ctx, PHASE_VALIDATE) as phase:
        yield from collect(
            tm,
            ctx,
            reports,
            msg.PREPARE_TO_VALIDATE,
            msg.CAT_VOTE,
            {server: {} for server in participants},
        )
        phase.rounds = 1
        abort_reason = yield from repair_versions(
            tm, ctx, phase, reports, master_mode or tm.config.master_fetch_mode
        )
        return ValidationResult(
            "continue" if abort_reason is None else "abort",
            phase.rounds,
            abort_reason,
            {server: report["truth"] for server, report in reports.items()},
        )
