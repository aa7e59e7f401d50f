"""Decision accuracy against an omniscient oracle.

Section IV-B observes that under weak consistency "a server might evaluate
a proof based on an old version of a policy and in that case no guarantee
that the decision made by that server is valid ... servers might have
false negative decisions and deny access to queries, and on the other
hand, false positive decisions could also be made"; Section IV-C claims
the stricter approaches (with global consistency) avoid those false
decisions.

This module makes the claims measurable.  The :class:`DecisionOracle`
re-evaluates every recorded proof of authorization under the policy the
administrator had *actually published* at the proof's evaluation instant
(plus the true revocation state at that instant) and classifies each
decision:

* **TP** — granted, and the oracle grants;
* **FP** — granted, but the oracle denies (the unsafe direction);
* **FN** — denied, but the oracle grants (lost work / lost business);
* **TN** — denied, and the oracle denies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from repro.policy.admin import PolicyAdministrator
from repro.policy.credentials import CARegistry, Credential
from repro.policy.policy import Policy
from repro.policy.proofs import ProofOfAuthorization, evaluate_proof


@dataclass(frozen=True)
class Classification:
    """One proof decision versus the oracle."""

    proof: ProofOfAuthorization
    oracle_granted: bool
    kind: str  # "TP" | "FP" | "FN" | "TN"

    @property
    def correct(self) -> bool:
        return self.kind in ("TP", "TN")


@dataclass
class AccuracyReport:
    """Aggregated classification counts."""

    classifications: List[Classification] = field(default_factory=list)

    def add(self, classification: Classification) -> None:
        self.classifications.append(classification)

    def count(self, kind: str) -> int:
        return sum(1 for item in self.classifications if item.kind == kind)

    @property
    def total(self) -> int:
        return len(self.classifications)

    @property
    def false_positive_rate(self) -> float:
        """FP over all granted decisions."""
        granted = self.count("TP") + self.count("FP")
        return self.count("FP") / granted if granted else 0.0

    @property
    def false_negative_rate(self) -> float:
        """FN over all denied decisions."""
        denied = self.count("TN") + self.count("FN")
        return self.count("FN") / denied if denied else 0.0

    @property
    def accuracy(self) -> float:
        if not self.classifications:
            return 1.0
        return sum(1 for item in self.classifications if item.correct) / self.total

    def summary(self) -> Dict[str, float]:
        return {
            "total": self.total,
            "TP": self.count("TP"),
            "FP": self.count("FP"),
            "FN": self.count("FN"),
            "TN": self.count("TN"),
            "accuracy": self.accuracy,
            "fp_rate": self.false_positive_rate,
            "fn_rate": self.false_negative_rate,
        }


class DecisionOracle:
    """Re-evaluates proofs with perfect knowledge of policies and status.

    Needs the administrators (for the authoritative version history) and
    the CA registry (to resolve credentials and revocation schedules).
    Capability credentials issued mid-run resolve through the registry as
    well, since servers register their issuing authorities there.
    """

    def __init__(
        self,
        administrators: Iterable[PolicyAdministrator],
        registry: CARegistry,
    ) -> None:
        self._admins = {admin.policy_id: admin for admin in administrators}
        self.registry = registry
        #: policy_id -> {version: publication time}.  Publication times are
        #: not stored on policies, so the oracle is fed them through
        #: :meth:`note_publication`; unrecorded versions are assumed to
        #: predate the simulation (live since time zero).
        self._publications: Dict = {}

    def note_publication(self, policy: Policy, at_time: float) -> None:
        """Record when a version was published (wire to ``on_publish``)."""
        self._publications.setdefault(policy.policy_id, {})[policy.version] = at_time

    def policy_at(self, proof: ProofOfAuthorization, instant: float) -> Optional[Policy]:
        """The latest policy the administrator had published by ``instant``."""
        administrator = self._admins.get(proof.policy_id)
        if administrator is None:
            return None
        published = self._publications.get(proof.policy_id, {})
        best = 1
        for version, time in published.items():
            if time <= instant and version > best:
                best = version
        chosen: Optional[Policy] = None
        for policy in administrator.history():
            if policy.version <= best:
                chosen = policy
        return chosen

    def truth(self, proof: ProofOfAuthorization) -> Optional[bool]:
        """The oracle's verdict for a recorded proof (None if unresolvable)."""
        policy = self.policy_at(proof, proof.evaluated_at)
        if policy is None:
            return None
        credentials: List[Credential] = []
        for cred_id in proof.credential_ids:
            credential = self.registry.resolve_credential(cred_id)
            if credential is not None:
                credentials.append(credential)
        oracle_proof = evaluate_proof(
            policy=policy,
            query_id=proof.query_id,
            user=proof.user,
            operation=proof.operation,
            items=proof.items,
            credentials=credentials,
            server="oracle",
            now=proof.evaluated_at,
            registry=self.registry,
        )
        return oracle_proof.granted

    def classify(self, proof: ProofOfAuthorization) -> Optional[Classification]:
        oracle_granted = self.truth(proof)
        if oracle_granted is None:
            return None
        if proof.granted and oracle_granted:
            kind = "TP"
        elif proof.granted:
            kind = "FP"
        elif oracle_granted:
            kind = "FN"
        else:
            kind = "TN"
        return Classification(proof, oracle_granted, kind)

    def report(self, proofs: Sequence[ProofOfAuthorization]) -> AccuracyReport:
        """Classify a batch of proofs."""
        report = AccuracyReport()
        for proof in proofs:
            classification = self.classify(proof)
            if classification is not None:
                report.add(classification)
        return report


def oracle_for_cluster(cluster) -> DecisionOracle:
    """Build an oracle wired to a cluster's administrators and registry.

    Publication times are captured going forward via an ``on_publish``
    hook; every version already published (including the initial ones)
    is assumed live since time zero.
    """
    oracle = DecisionOracle(cluster.admins.values(), cluster.registry)
    for administrator in cluster.admins.values():
        for policy in administrator.history():
            oracle.note_publication(policy, at_time=0.0)
        administrator.on_publish(
            lambda policy, _oracle=oracle, _cluster=cluster: _oracle.note_publication(
                policy, _cluster.env.now
            )
        )
    return oracle
