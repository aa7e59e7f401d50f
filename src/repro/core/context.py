"""Per-transaction coordinator state (the TM's bookkeeping).

The :class:`TxnContext` accumulates everything the transaction manager
learns while driving a transaction: which servers participate, the
transaction's *view* of proofs (Definition 1), the policy versions each
server reported, and the freshest policy bodies seen (used to push Update
messages during 2PV/2PVC).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.core.consistency import ConsistencyLevel
from repro.errors import AbortReason
from repro.policy.credentials import Credential
from repro.policy.policy import Policy, PolicyId
from repro.policy.proofs import ProofOfAuthorization
from repro.transactions.states import Decision, TxnStatus
from repro.transactions.transaction import Query, Transaction


@dataclass
class TxnContext:
    """Mutable coordinator-side state for one transaction."""

    txn: Transaction
    consistency: ConsistencyLevel
    approach_name: str
    coordinator: str

    status: TxnStatus = TxnStatus.ACTIVE
    #: Participants in first-contact order.
    participants: List[str] = field(default_factory=list)
    queries_by_server: Dict[str, List[Query]] = field(default_factory=dict)
    executed_queries: int = 0

    #: The transaction's view V^T: every proof of authorization evaluated
    #: during its lifetime (Definition 1), in evaluation order.
    view: List[ProofOfAuthorization] = field(default_factory=list)
    #: The most recent proof per query id.
    latest_proofs: Dict[str, ProofOfAuthorization] = field(default_factory=dict)

    #: Per admin domain: the version each server most recently reported.
    versions_seen: Dict[PolicyId, Dict[str, int]] = field(default_factory=dict)
    #: Freshest policy body the TM has seen per domain (for Update pushes).
    policies_known: Dict[PolicyId, Policy] = field(default_factory=dict)
    #: Latest master versions fetched (global consistency only).
    master_versions: Dict[PolicyId, int] = field(default_factory=dict)

    #: Capability credentials acquired mid-transaction (servers may issue
    #: access credentials after granting a query, Section III-A).
    extra_credentials: List[Credential] = field(default_factory=list)
    #: Read results per query id (externalized to the user only at commit).
    values: Dict[str, Dict[str, Any]] = field(default_factory=dict)

    #: Observability handles (``repro.obs`` spans): the transaction's root
    #: span and the currently open phase span.  ``Any`` keeps the core
    #: layer free of an obs dependency; both stay ``None`` when the trace
    #: is unsampled or span recording is off.
    root_span: Optional[Any] = None
    phase_span: Optional[Any] = None

    started_at: float = 0.0
    ready_at: Optional[float] = None
    finished_at: Optional[float] = None
    voting_rounds: int = 0
    #: Rounds of the commit-time protocol alone.
    commit_rounds: int = 0
    decision: Optional[Decision] = None
    abort_reason: Optional[AbortReason] = None

    # -- helpers ----------------------------------------------------------------

    @property
    def txn_id(self) -> str:
        return self.txn.txn_id

    def all_credentials(self) -> Tuple[Credential, ...]:
        """Submitted credentials plus capabilities acquired along the way."""
        return tuple(self.txn.credentials) + tuple(self.extra_credentials)

    def note_participant(self, server: str, query: Query) -> None:
        if server not in self.participants:
            self.participants.append(server)
        self.queries_by_server.setdefault(server, []).append(query)

    def active_participants(self) -> List[str]:
        """Participants that executed at least one query, in first-contact order."""
        return [server for server in self.participants if self.queries_by_server.get(server)]

    def record_proof(self, proof: ProofOfAuthorization) -> None:
        """Append to the view and update the per-query latest proof."""
        self.view.append(proof)
        self.latest_proofs[proof.query_id] = proof

    def record_version(self, policy_id: PolicyId, server: str, version: int) -> None:
        self.versions_seen.setdefault(policy_id, {})[server] = version

    def learn_policy(self, policy: Policy) -> None:
        """Keep the freshest policy body per domain."""
        known = self.policies_known.get(policy.policy_id)
        if known is None or policy.version > known.version:
            self.policies_known[policy.policy_id] = policy

    def final_proofs(self) -> List[ProofOfAuthorization]:
        """The latest proof per query, in query submission order."""
        ordered: List[ProofOfAuthorization] = []
        for query in self.txn.queries:
            proof = self.latest_proofs.get(query.query_id)
            if proof is not None:
                ordered.append(proof)
        return ordered
