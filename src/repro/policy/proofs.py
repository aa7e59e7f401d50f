"""Proofs of authorization and their evaluation.

Section III-A: a proof of authorization is the tuple
``f_si = <q_i, s_i, P_si(m(q_i)), t_i, C>`` and its validity at time ``t``
is the predicate ``eval(f, t)``, true when (1) the presented credentials are
syntactically and semantically valid and (2) the policy's inference rules
are satisfiable from those credentials.

:func:`evaluate_proof` performs the evaluation and returns a
:class:`ProofOfAuthorization` — an immutable record including the derivation
trees, suitable for storing in a transaction's view (Definition 1).

Evaluation is **deterministic**: the verdict is a pure function of the
policy (id + version + rules), the query content (user, operation, items),
the presented credentials, the revocation checker's knowledge, and the
evaluation time ``now``.  No randomness is drawn, so two calls with equal
inputs return field-for-field equal records.  That purity is what makes the
cache in :mod:`repro.policy.proofcache` safe: it memoizes the two halves of
the evaluation separately — each credential's assessment over the time
window in which it cannot change, and the derivations (:func:`derive`) per
query shape — and builds every record with :func:`proof_record`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, List, Mapping, Optional, Sequence, Tuple

from repro.obs.spans import Span, annotate
from repro.policy.credentials import CARegistry, Credential
from repro.policy.policy import Operation, Policy, PolicyId
from repro.policy.rules import EngineCounters, FactBase, ProofNode


class RevocationChecker(abc.ABC):
    """How semantic validity (non-revocation) is established.

    The paper assumes "each CA offers an online method that allows any
    server to check the current status of a particular credential" (OCSP,
    RFC 2560).  Implementations either consult the CA registry directly
    (:class:`LocalRevocationChecker`, the zero-latency oracle) or replay
    statuses previously fetched over the simulated network
    (:class:`PrefetchedStatuses`, produced by the OCSP responder node).
    """

    @abc.abstractmethod
    def check(self, credential: Credential, relied_at: float, now: float) -> Tuple[bool, str]:
        """Return ``(clean, reason)`` for ``credential`` over ``[relied_at, now]``."""

    def cache_token(self) -> Optional[object]:
        """Hashable identity of this checker's knowledge, for cache keying.

        Two checkers with equal tokens must answer :meth:`check` identically
        for every credential and time.  Returning ``None`` (the default)
        marks the checker *uncacheable*: :class:`repro.policy.proofcache.
        ProofCache` bypasses memoization entirely, which is always safe.
        """
        return None

    def revocation_boundary(self, credential: Credential) -> Optional[float]:
        """Earliest time at/after which this checker reports ``credential``
        revoked, or ``None`` when no revocation is known.

        The proof cache uses this to bound a credential verdict's window:
        cached verdicts must not be replayed across the instant a
        revocation takes effect.
        """
        return None


class LocalRevocationChecker(RevocationChecker):
    """Synchronous oracle backed by the CA registry."""

    def __init__(self, registry: CARegistry) -> None:
        self.registry = registry
        # The registry is mutable shared state, but revocations — the only
        # mutations affecting check() — fire the cache's invalidation hook,
        # so identity of the registry object is a sound token.
        self._token = ("local", id(registry))

    def check(self, credential: Credential, relied_at: float, now: float) -> Tuple[bool, str]:
        return self.registry.semantically_valid(credential, relied_at, now)

    def cache_token(self) -> Optional[object]:
        return self._token

    def revocation_boundary(self, credential: Credential) -> Optional[float]:
        authority = self.registry.get(credential.issuer)
        if authority is None:
            return None
        record = authority.revocation(credential.cred_id)
        return record.revoked_at if record is not None else None


class PrefetchedStatuses(RevocationChecker):
    """Statuses previously retrieved from an OCSP responder.

    Credentials missing from the prefetched map are treated as unverifiable
    and therefore invalid — failing closed is the safe default.
    """

    def __init__(self, statuses: Mapping[str, bool]) -> None:
        self.statuses = dict(statuses)

    def check(self, credential: Credential, relied_at: float, now: float) -> Tuple[bool, str]:
        clean = self.statuses.get(credential.cred_id)
        if clean is None:
            return False, "status_unavailable"
        return (True, "ok") if clean else (False, "revoked")

    def cache_token(self) -> Optional[object]:
        # A frozen snapshot: answers depend only on the fetched map, so the
        # map's content is the checker's whole identity.
        return ("prefetched", frozenset(self.statuses.items()))


@dataclass(frozen=True, slots=True)
class CredentialAssessment:
    """Outcome of validity checking for one presented credential."""

    cred_id: str
    syntactic_ok: bool
    semantic_ok: bool
    reason: str

    @property
    def ok(self) -> bool:
        return self.syntactic_ok and self.semantic_ok


@dataclass(frozen=True, slots=True)
class ProofOfAuthorization:
    """The paper's ``f_si = <q_i, s_i, P_si(m(q_i)), t_i, C>`` plus verdict.

    ``granted`` is the value of ``eval(f, t_i)`` — whether every touched
    item's access goal was derivable from the (valid) credentials under the
    policy version recorded here.
    """

    query_id: str
    user: str
    operation: Operation
    items: Tuple[str, ...]
    server: str
    policy_id: PolicyId
    policy_version: int
    evaluated_at: float
    credential_ids: Tuple[str, ...]
    granted: bool
    reason: str
    assessments: Tuple[CredentialAssessment, ...]
    derivations: Tuple[ProofNode, ...]

    @property
    def admin(self) -> str:
        """The administrative domain whose policy was applied."""
        return self.policy_id.admin

    def credentials_used(self) -> Tuple[str, ...]:
        """Ids of credentials actually appearing as leaves of the derivations."""
        used: List[str] = []
        for derivation in self.derivations:
            for source in derivation.sources():
                if source not in used:
                    used.append(source)
        return tuple(used)

    def __repr__(self) -> str:
        verdict = "GRANTED" if self.granted else f"DENIED({self.reason})"
        return (
            f"Proof({self.query_id}@{self.server} {self.operation.value} "
            f"{list(self.items)} under {self.admin} v{self.policy_version} "
            f"at t={self.evaluated_at}: {verdict})"
        )


def assess_credentials(
    credentials: Sequence[Credential],
    registry: CARegistry,
    revocation: RevocationChecker,
    now: float,
) -> List[CredentialAssessment]:
    """Run syntactic + semantic validity over each presented credential.

    Deterministic and side-effect free: assessments are returned in
    presentation order, and the verdict for a credential can only change
    when ``now`` crosses one of its validity boundaries (``issued_at``,
    ``expires_at``, or a revocation instant) — the fact the proof cache's
    validity windows rely on.
    """
    assessments: List[CredentialAssessment] = []
    for credential in credentials:
        syntactic_ok, reason = registry.syntactically_valid(credential, now)
        semantic_ok = False
        if syntactic_ok:
            semantic_ok, sem_reason = revocation.check(credential, credential.issued_at, now)
            if not semantic_ok:
                reason = sem_reason
        try:
            cred_id = credential.cred_id
        except AttributeError:  # rendered only then: a repr is not cheap
            cred_id = f"<malformed:{credential!r}>"
        assessments.append(
            CredentialAssessment(cred_id, syntactic_ok, semantic_ok, reason)
        )
    return assessments


def evaluate_proof(
    policy: Policy,
    query_id: str,
    user: str,
    operation: Operation,
    items: Sequence[str],
    credentials: Sequence[Credential],
    server: str,
    now: float,
    registry: CARegistry,
    revocation: Optional[RevocationChecker] = None,
    counters: Optional[EngineCounters] = None,
    obs_span: Optional[Span] = None,
) -> ProofOfAuthorization:
    """Evaluate ``eval(f, now)`` and build the full proof record.

    The two validity cases of Section III-A are applied in order: invalid
    credentials are discarded (never contributing facts), then each touched
    item's access goal must be derivable from the surviving credentials.
    ``counters``, when given, accumulates the inference engine's work
    accounting (facts scanned, rules tried, table hits, …) across the
    per-item ``prove`` calls.

    This is the *uncached* ground-truth path.  It draws no randomness and
    mutates nothing, so the result is fully determined by its arguments;
    callers that evaluate the same ``(policy version, query content,
    credentials, checker)`` repeatedly — Continuous re-proves on every
    operation, Deferred re-proves everything at commit — can route through
    :meth:`repro.policy.proofcache.ProofCache.evaluate`, which is built from
    the same parts and returns records equal to this function's.
    ``obs_span``, when given, receives the verdict as span attributes
    (``granted``/``reason``) for the tracing subsystem.
    """
    revocation = revocation or LocalRevocationChecker(registry)
    assessments = assess_credentials(credentials, registry, revocation, now)
    facts = FactBase()
    for credential, assessment in zip(credentials, assessments):
        if assessment.ok:
            facts.add(credential.atom, source=credential.cred_id)
    derivations = derive(policy, operation, user, items, facts, counters)
    return proof_record(
        policy, query_id, user, operation, items, tuple(c.cred_id for c in credentials),
        server, now, assessments, derivations, obs_span,
    )


def derive(
    policy: Policy, operation: Operation, user: Any, items: Sequence[Any], facts: FactBase,
    counters: Optional[EngineCounters] = None,
) -> Tuple[ProofNode, ...]:
    """Section III-A case 2: each item's derivation from ``facts``, in order, up
    to the first item whose goal has none.  ``user`` and ``items`` are the
    terms the goals are built from (the proof cache passes placeholders)."""
    derivations: List[ProofNode] = []
    for item in items:
        derivation = policy.rules.prove(policy.goal(operation, user, item), facts, counters)
        if derivation is None:
            break
        derivations.append(derivation)
    return tuple(derivations)


def proof_record(
    policy: Policy, query_id: str, user: str, operation: Operation, items: Sequence[str],
    credential_ids: Tuple[str, ...], server: str, now: float,
    assessments: Sequence[CredentialAssessment], derivations: Tuple[ProofNode, ...],
    obs_span: Optional[Span] = None,
) -> ProofOfAuthorization:
    """The record of an evaluation: granted iff :func:`derive` found every item's."""
    granted = len(derivations) == len(items)
    reason = "ok"
    if not granted:
        goal = policy.goal(operation, user, items[len(derivations)])
        bad = [a.cred_id for a in assessments if not a.ok]
        reason = f"unprovable:{goal!r}" + (f" (invalid credentials: {bad})" if bad else "")
    annotate(obs_span, granted=granted, reason=reason, version=policy.version)
    return ProofOfAuthorization(
        query_id, user, operation, tuple(items), server, policy.policy_id, policy.version, now,
        credential_ids, granted, reason, tuple(assessments), derivations,
    )
