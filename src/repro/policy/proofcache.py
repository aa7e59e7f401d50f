"""Proof-of-authorization evaluation, memoized by what each half depends on.

The approaches differ in *how often* they (re)evaluate proofs (Table I).
The paper's ``eval(f, t)`` (§III-A) conjoins two checks with different
inputs, and :class:`ProofCache` memoizes each on exactly its own:

* **credential verdicts** — is each presented credential valid at ``t``? —
  one per credential id, for the checker token it was assessed under.  A
  verdict holds the credential it assessed, which a lookup must present
  again (identity first, equality otherwise), and the window around ``t``
  that none of the credential's validity boundaries falls in;
* **derivation templates** — do the rules derive every item's goal from
  the surviving atoms? — keyed per *lineage* by a *pattern*: the user, the
  items and the surviving atoms in presentation order, each constant no
  rule of the lineage's dependency closure mentions replaced by a
  placeholder numbered by first occurrence.  A template holds derivations
  proved on the pattern itself; a lookup fills constants and credential ids
  in, or replays the record the template was made for when it presents
  the same constants, credential ids and verdicts.

Every record equals :func:`~repro.policy.proofs.evaluate_proof`'s, because
:meth:`~repro.policy.rules.RuleSet.prove` commutes with every bijection of
constants that fixes the rules' own (``docs/policy-analysis.md``).  A
lineage is one ``(policy id, goal predicate)`` under one version, which it
owns with the closure and the closure's rule constants.  A policy install
(:meth:`ProofCache.invalidate_policy`) re-points every lineage its diff
cannot affect and drops the rest; a revocation
(:meth:`ProofCache.invalidate_credential`) drops the credential's verdict.
A hit still costs simulated ``PROOF_EVALUATION_TIME`` and counts in Table I:
the cache saves host CPU only (``docs/performance.md``).
"""

from __future__ import annotations

from collections import OrderedDict
from operator import is_
from typing import Any, Dict, FrozenSet, List, NamedTuple, Optional, Sequence, Tuple

from repro.obs.spans import Span, annotate
from repro.policy.analyze import HeldRules, changed_predicates, dependency_closure
from repro.policy.credentials import CARegistry, Credential
from repro.policy.policy import GUARD_PREDICATES, Operation, Policy, PolicyId
from repro.policy.proofs import (
    CredentialAssessment,
    LocalRevocationChecker,
    ProofOfAuthorization,
    RevocationChecker,
    assess_credentials,
    derive,
    evaluate_proof,
    proof_record,
)
from repro.policy.rules import Atom, FactBase, ProofNode, RuleSet, Term, Variable, _fast_atom

#: LRU bound of each memo, sized so a contended scale run's working set fits
#: while distinct-user churn cannot grow either memo with the population.
#: Hits are outcome-neutral (a hit still spends the simulated evaluation time
#: and counts in Table I), so the bound cannot change results.
STREAMING_PROOF_CACHE_CAPACITY = 4096


class _Slot(NamedTuple):
    """A template's ``index``-th placeholder: equal to no ``str`` or ``int``."""

    index: int


#: ((item count, predicate, arity, ..., mask of abstracted positions), (user,
#: *items, *surviving atoms' arguments)), an abstracted constant as its index.
Pattern = Tuple[Tuple[Any, ...], Tuple[Any, ...]]


def rule_constants(rules: RuleSet, closure: FrozenSet[str]) -> FrozenSet[Term]:
    """Every constant a rule whose head predicate is in ``closure`` mentions."""
    return frozenset(
        arg for rule in rules if rule.head.predicate in closure
        for atom in (rule.head, *rule.body) for arg in atom.args if not isinstance(arg, Variable)
    )


def pattern_of(
    user: str, items: Sequence[str], atoms: Sequence[Atom], constants: FrozenSet[Term]
) -> Tuple[Pattern, Tuple[Term, ...]]:
    """A query's pattern, and the constants its placeholders stand for."""
    shape: List[Any] = [len(items)]
    terms: List[Any] = [user, *items]
    for atom in atoms:
        shape += (atom.predicate, len(atom.args))
        terms += atom.args
    slots: Dict[Term, int] = {}
    abstracted = 0
    for position, term in enumerate(terms):
        if term not in constants:
            terms[position] = slots.setdefault(term, len(slots))
            abstracted |= 1 << position
    shape.append(abstracted)
    return (tuple(shape), tuple(terms)), tuple(slots)


def _fill(node: ProofNode, bound: Dict[Any, Any], sources: Sequence[str]) -> ProofNode:
    """A template's derivation with placeholders bound and sources (positions
    among the surviving credentials) named; subtrees with neither are shared."""
    atom, children, source = node.atom, node.children, node.source
    if _Slot in map(type, atom.args):
        atom = _fast_atom(atom.predicate, tuple([bound.get(arg, arg) for arg in atom.args]))
    children = tuple([_fill(child, bound, sources) for child in children])
    if source is not None:
        source = sources[int(source)]
    elif atom is node.atom and all(map(is_, children, node.children)):
        return node
    return ProofNode(atom, node.justification, children, node.rule, source)


class _Verdict(NamedTuple):
    """A credential's assessment under ``token``, for ``start <= now < end``."""

    token: object
    credential: Credential
    assessment: CredentialAssessment
    start: float
    end: float


class _Template(NamedTuple):
    """A pattern's derivations, and the evaluation they were made for."""

    derivations: Tuple[ProofNode, ...]
    bindings: Tuple[Term, ...]
    record: ProofOfAuthorization


class _Lineage:
    """The templates of one ``(policy id, goal predicate)`` under one version.

    The version lives here and not in the template keys, so an install that
    provably cannot affect these templates carries all of them over by
    assigning :attr:`version`.  Lineages hash by identity.
    """

    __slots__ = ("policy_id", "goal", "version", "closure", "constants", "patterns")

    def __init__(self, policy_id: PolicyId, goal: str, version: int, rules: RuleSet) -> None:
        self.policy_id = policy_id
        self.goal = goal
        #: The one policy version the templates are currently valid for.
        self.version = version
        #: Every predicate a proof of ``goal`` may consult under the version
        #: the lineage was born under
        #: (:func:`repro.policy.analyze.dependency_closure`).  An install
        #: re-points a lineage only when its diff leaves the closure alone,
        #: and then the closure is the same under the new version.
        self.closure = dependency_closure(rules, (goal,))
        #: The constants the closure's rules mention: what a pattern keeps.
        self.constants = rule_constants(rules, self.closure)
        #: Patterns of the live templates, in insertion order.
        self.patterns: Dict[Pattern, None] = {}


class ProofCache:
    """Per-server memo for :func:`repro.policy.proofs.evaluate_proof`.

    ``stats`` is duck-typed (``on_hit``/``on_miss``/``on_bypass``/
    ``on_invalidation``, each taking the server name, plus an optional
    ``on_retention`` for templates an install *kept*), e.g.
    :class:`repro.metrics.counters.ProofCacheCounters`, or ``None``.  A hit
    is a lookup that ran no derivation search.  ``capacity`` bounds each memo
    with LRU eviction; only a store or a hit makes an entry recent, so an
    install does not refresh the templates it retains.
    """

    def __init__(
        self,
        stats: Optional[object] = None,
        server: str = "",
        capacity: int = STREAMING_PROOF_CACHE_CAPACITY,
    ) -> None:
        self.stats = stats
        self.server = server
        self.capacity = capacity
        self._templates: "OrderedDict[Tuple[_Lineage, Pattern], _Template]" = OrderedDict()
        #: credential id -> its verdict under the token last asked for.
        self._verdicts: "OrderedDict[str, _Verdict]" = OrderedDict()
        #: policy id -> (version, goal predicate) -> lineage.  Only lineages
        #: with live templates are listed, so everything the cache knows per
        #: policy version is bounded by, and dies with, its templates.
        self._lineages: Dict[PolicyId, Dict[Tuple[int, str], _Lineage]] = {}
        #: policy id -> the rules of the version last diffed, moved by each
        #: diffed install; one set per domain, never one per version.
        self._held: Dict[PolicyId, HeldRules] = {}

    # -- the memoized entry point -------------------------------------------------

    def evaluate(
        self,
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
        counters: Optional[object] = None,
        obs_span: Optional[Span] = None,
    ) -> ProofOfAuthorization:
        """``evaluate_proof`` with memoization, returning a record equal to its.

        A replay takes the caller's ``query_id``, ``server``, ``evaluated_at``
        and ``policy.version``.  An uncacheable checker or malformed credential
        bypasses the cache.  ``counters`` (:class:`~repro.policy.rules.
        EngineCounters`) sees misses and bypasses only; ``obs_span`` gets
        ``cache`` (``hit``/``miss``/``bypass``) plus the verdict.
        """
        revocation = revocation or LocalRevocationChecker(registry)
        token = revocation.cache_token()
        if token is None or not all(isinstance(c, Credential) for c in credentials):
            if self.stats is not None:
                self.stats.on_bypass(self.server)
            annotate(obs_span, cache="bypass")
            return evaluate_proof(
                policy, query_id, user, operation, items, credentials,
                server, now, registry, revocation, counters, obs_span,
            )

        goal = GUARD_PREDICATES[operation]
        domain = self._lineages.get(policy.policy_id)
        lineage = domain.get((policy.version, goal)) if domain is not None else None
        if lineage is None:  # listed with its first template
            lineage = _Lineage(policy.policy_id, goal, policy.version, policy.rules)
        ids, verdicts, atoms, sources = [], [], [], []
        for credential in credentials:
            ids.append(credential.cred_id)
            verdicts.append(self._assess(credential, token, now, registry, revocation))
            if verdicts[-1].ok:
                atoms.append(credential.atom)
                sources.append(credential.cred_id)
        credential_ids, assessments = tuple(ids), tuple(verdicts)
        pattern, bindings = pattern_of(user, items, atoms, lineage.constants)
        key = (lineage, pattern)
        template = self._templates.get(key)
        if template is None:
            annotate(obs_span, cache="miss")
            slot: Any = dict(zip(bindings, map(_Slot, range(len(bindings))))).get
            facts = FactBase()
            for index, atom in enumerate(atoms):
                facts.add(Atom(atom.predicate, tuple([slot(a, a) for a in atom.args])), str(index))
            abstract = [slot(term, term) for term in (user, *items)]
            derivations = derive(policy, operation, abstract[0], abstract[1:], facts, counters)
        else:
            self._templates.move_to_end(key)
            if self.stats is not None:
                self.stats.on_hit(self.server)
            record = template.record
            if (template.bindings, record.credential_ids, record.assessments) == (
                bindings, credential_ids, assessments
            ):
                annotate(
                    obs_span, cache="hit", granted=record.granted, reason=record.reason,
                    version=policy.version,
                )
                return ProofOfAuthorization(
                    query_id, record.user, operation, record.items, server, record.policy_id,
                    policy.version, now, record.credential_ids, record.granted, record.reason,
                    record.assessments, record.derivations,
                )
            annotate(obs_span, cache="hit")
            derivations = template.derivations
        bound = dict(zip(map(_Slot, range(len(bindings))), bindings))
        proof = proof_record(
            policy, query_id, user, operation, items, credential_ids, server, now,
            assessments, tuple([_fill(node, bound, sources) for node in derivations]),
            obs_span,
        )
        if template is None:
            self._templates[key] = _Template(derivations, bindings, proof)
            lineage.patterns[pattern] = None
            self._lineages.setdefault(policy.policy_id, {})[policy.version, goal] = lineage
            while len(self._templates) > self.capacity:
                self._unindex(self._templates.popitem(last=False)[0])
            if self.stats is not None:
                self.stats.on_miss(self.server)
        return proof

    # -- invalidation hooks ----------------------------------------------------------

    def invalidate_policy(
        self, policy: Policy, previous: Optional[Policy] = None
    ) -> int:
        """React to an install of ``policy``; returns templates dropped.

        Wired to :meth:`PolicyStore.subscribe`, which passes the version
        ``previous``\\ ly held by the same store (``None`` on first
        install).  An install whose provenance we can't establish drops
        the whole administrative domain.  Otherwise the two versions are
        diffed (:func:`~repro.policy.analyze.changed_predicates`, moving
        the rules this cache holds for the domain) and the hook *keeps*
        every lineage of the outgoing version whose dependency closure is
        disjoint from the changed predicates, re-pointing it to the new
        version number: the rule fragment its proofs can reach is
        rule-for-rule identical under both versions, so a fresh evaluation
        under ``policy`` would reproduce every template's derivations
        exactly (``docs/policy-analysis.md`` § soundness).
        Lineages pinned to any *other* version are always dropped — they
        are stale deliveries we never diffed against, or were pre-created
        at the incoming version.  The work is the rules the install appends
        (both rule sets for any other change), one step per goal predicate,
        and one per template dropped; the templates kept are counted, not
        visited.
        """
        domain = self._lineages.get(policy.policy_id)
        if domain is None:
            return 0
        outgoing: Optional[int] = None  # the version the diff vouches for
        changed: FrozenSet[str] = frozenset()
        if (
            previous is not None
            and previous.policy_id == policy.policy_id
            and previous.version < policy.version
        ):
            outgoing = previous.version
            held = self._held.setdefault(policy.policy_id, HeldRules())
            changed = changed_predicates(previous.rules, policy.rules, held)
        kept: List[_Lineage] = []
        doomed: List[Tuple[_Lineage, Pattern]] = []
        for lineage in domain.values():
            if lineage.version == outgoing and lineage.closure.isdisjoint(changed):
                kept.append(lineage)
            else:
                doomed.extend((lineage, pattern) for pattern in lineage.patterns)
        retained = sum(len(lineage.patterns) for lineage in kept)
        if retained:
            on_retention = getattr(self.stats, "on_retention", None)
            if on_retention is not None:
                on_retention(self.server, retained)
        for lineage in kept:
            # A template pre-created at the incoming version takes its kept
            # twin (same pattern, outgoing version) with it, uncounted, as
            # the version-pinned cache did.  Dropping is always safe.
            incoming = domain.get((policy.version, lineage.goal))
            if incoming is not None:
                for pattern in incoming.patterns:
                    self._discard((lineage, pattern))
        dropped = self._drop(doomed)
        for lineage in kept:
            if lineage.patterns:
                del domain[lineage.version, lineage.goal]
                lineage.version = policy.version
                domain[lineage.version, lineage.goal] = lineage
        return dropped

    def invalidate_credential(self, cred_id: str) -> int:
        """Drop the verdict on ``cred_id``; returns how many (0 or 1).  Wired to
        :meth:`CARegistry.subscribe_revocations`: a revocation changes a verdict
        under an equal credential, token and window, so this is load-bearing."""
        dropped = int(self._verdicts.pop(cred_id, None) is not None)
        if dropped and self.stats is not None:
            self.stats.on_invalidation(self.server, dropped)
        return dropped

    def clear(self) -> int:
        """Drop everything (the templates counted as invalidations)."""
        count = len(self._templates)
        self._templates.clear()
        self._verdicts.clear()
        self._lineages.clear()
        self._held.clear()
        if count and self.stats is not None:
            self.stats.on_invalidation(self.server, count)
        return count

    def __len__(self) -> int:
        return len(self._templates)

    # -- internals ------------------------------------------------------------------

    def _assess(
        self, credential: Credential, token: object, now: float, registry: CARegistry,
        revocation: RevocationChecker,
    ) -> CredentialAssessment:
        """``credential``'s assessment under ``token`` at ``now``.  A verdict
        holds on the largest ``[start, end)`` around ``now`` free of validity
        flips: each flips exactly *at* its boundary (valid from ``issued_at``,
        expired from ``expires_at``, revoked from ``revoked_at``)."""
        verdict = self._verdicts.get(credential.cred_id)
        if (
            verdict is not None
            and verdict.token == token
            and (verdict.credential is credential or verdict.credential == credential)
            and verdict.start <= now < verdict.end
        ):
            self._verdicts.move_to_end(credential.cred_id)
            return verdict.assessment
        (assessment,) = assess_credentials((credential,), registry, revocation, now)
        revoked = revocation.revocation_boundary(credential)
        flips = [t for t in (credential.issued_at, credential.expires_at, revoked) if t is not None]
        start = max([t for t in flips if t <= now], default=float("-inf"))
        end = min([t for t in flips if t > now], default=float("inf"))
        verdicts = self._verdicts
        verdicts[credential.cred_id] = _Verdict(token, credential, assessment, start, end)
        verdicts.move_to_end(credential.cred_id)
        while len(verdicts) > self.capacity:
            verdicts.popitem(last=False)
        return assessment

    def _drop(self, keys: List[Tuple[_Lineage, Pattern]]) -> int:
        """Discard ``keys`` (a snapshot: the indexes change underneath)."""
        dropped = sum(self._discard(key) for key in keys)
        if dropped and self.stats is not None:
            self.stats.on_invalidation(self.server, dropped)
        return dropped

    def _discard(self, key: Tuple[_Lineage, Pattern]) -> bool:
        if self._templates.pop(key, None) is None:
            return False
        self._unindex(key)
        return True

    def _unindex(self, key: Tuple[_Lineage, Pattern]) -> None:
        """Forget a key just removed from ``_templates``; a lineage that
        loses its last template is unlisted."""
        lineage = key[0]
        del lineage.patterns[key[1]]
        if not lineage.patterns:
            domain = self._lineages[lineage.policy_id]
            del domain[lineage.version, lineage.goal]
            if not domain:
                del self._lineages[lineage.policy_id]
