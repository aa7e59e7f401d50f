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

The generator is driven by the transaction manager's process; ``tm`` is any
object providing the coordinator surface (``env``, ``config``, ``request``,
``fetch_master_versions`` — see :class:`repro.transactions.manager.TransactionManager`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional, Tuple

from repro.cloud import messages as msg
from repro.cloud.config import MasterFetchMode
from repro.core.consistency import ConsistencyLevel
from repro.core.context import TxnContext
from repro.errors import AbortReason
from repro.obs.spans import KIND_PHASE, NULL_RECORDER, PHASE_VALIDATE, SpanRecorder
from repro.policy.policy import Policy, PolicyId
from repro.sim.events import Event


#: Safety valve on validation rounds (the paper leaves them unbounded): a
#: transaction still chasing fresh policy versions after this many rounds
#: aborts with ``POLICY_INCONSISTENCY``.
MAX_VALIDATION_ROUNDS = 50


def coordinator_recorder(tm: Any) -> SpanRecorder:
    """The coordinator's span recorder, tolerating bare stubs in tests."""
    obs = getattr(tm, "obs", None)
    return obs if obs is not None else NULL_RECORDER


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


def run_2pv(
    tm: Any,
    ctx: TxnContext,
    master_mode: Optional[MasterFetchMode] = None,
) -> Generator[Event, Any, ValidationResult]:
    """Algorithm 1, coordinator side.  Returns a :class:`ValidationResult`.

    ``master_mode`` controls how often the master version is retrieved
    under global consistency (Section V-A allows once or per round);
    defaults to the cloud config's setting.
    """
    participants = [
        server for server in ctx.participants if ctx.queries_by_server.get(server)
    ]
    if not participants:
        return ValidationResult("continue", rounds=0)

    mode = master_mode or tm.config.master_fetch_mode
    timeout = tm.config.request_timeout
    reports: Dict[str, Dict[str, Any]] = {}

    # The validation phase gets its own span.  Continuous runs 2PV *during*
    # execution, so the parent may be the execute phase; the previous phase
    # span is restored on every exit path (including request timeouts).
    obs = coordinator_recorder(tm)
    prev_phase = ctx.phase_span
    phase = obs.start(
        ctx.txn_id,
        PHASE_VALIDATE,
        KIND_PHASE,
        tm.name,
        tm.env.now,
        parent=prev_phase if prev_phase is not None else ctx.root_span,
    )
    if phase is not None:
        ctx.phase_span = phase
    rounds = 0
    try:
        # Collection phase, round 1: Prepare-to-Validate to every participant.
        # Retry-capable RPC when the TM provides one (bare protocol stubs in
        # unit tests don't); identical to tm.request with retries disabled.
        rpc = getattr(tm, "rpc_event", tm.request)
        events = [
            rpc(
                server,
                msg.PREPARE_TO_VALIDATE,
                msg.CAT_VOTE,
                timeout=timeout,
                span=ctx.phase_span or ctx.root_span,
                txn_id=ctx.txn_id,
            )
            for server in participants
        ]
        replies = yield tm.env.all_of(events)
        for server, reply in zip(participants, replies):
            reports[server] = ingest_report(ctx, server, reply)
        rounds = 1
        master_fetched = False

        while True:
            if ctx.consistency is ConsistencyLevel.GLOBAL and (
                mode is MasterFetchMode.PER_ROUND or not master_fetched
            ):
                yield from tm.fetch_master_versions(ctx)
                master_fetched = True

            targets = compute_targets(ctx, reports)
            outdated = find_outdated(ctx, reports, targets)

            if not outdated:
                truth_by_server = {server: report["truth"] for server, report in reports.items()}
                if all(truth_by_server.values()):
                    return ValidationResult("continue", rounds, None, truth_by_server)
                return ValidationResult(
                    "abort", rounds, AbortReason.PROOF_FAILED, truth_by_server
                )

            if rounds >= MAX_VALIDATION_ROUNDS:
                return ValidationResult(
                    "abort",
                    rounds,
                    AbortReason.POLICY_INCONSISTENCY,
                    {server: report["truth"] for server, report in reports.items()},
                )

            # Validation phase: push updates to the stale participants and
            # re-run the collection phase for them (Algorithm 1 steps 10-11).
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
    finally:
        obs.finish(phase, tm.env.now, rounds=rounds)
        ctx.phase_span = prev_phase
