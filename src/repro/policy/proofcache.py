"""Version-aware memoization of proof-of-authorization evaluation.

The four enforcement approaches differ precisely in *how often* proofs are
(re)evaluated: Continuous re-proves every earlier query after each new
operation, Deferred and Punctual re-prove everything at commit, and extra
2PV validation rounds re-prove again after policy updates (Table I).  Each
of those evaluations is a pure function of

* the policy (id **and version** — versions are the paper's consistency
  currency, so a lookup resolves them first),
* the query content (user, operation, touched items),
* the set of presented credentials, and
* the revocation checker's knowledge
  (:meth:`~repro.policy.proofs.RevocationChecker.cache_token`),

plus the evaluation time ``now``.  Time only matters when it crosses a
credential *validity boundary* (issue instant, expiry instant, revocation
instant), so a cached verdict may be replayed for any ``now`` inside the
boundary-free window around the original evaluation.  :class:`ProofCache`
memoizes on exactly that key and window, which is why caching can never
change a 2PV/2PVC vote — see ``docs/performance.md`` for the full safety
argument.

The version is not a component of the entry key.  Entries belong to a
*lineage* — one per ``(policy id, goal predicate)`` and version — which
owns the version its entries are valid for and the dependency closure they
share.  A lookup resolves ``(policy id, version, goal)`` to a lineage before
it looks for an entry; no lineage at that version is a miss, exactly where
a version-pinned key would have missed.

Explicit invalidation hooks keep the cache honest against the two external
mutations that *can* change verdicts without any key changing:

* **policy installs** — :meth:`repro.policy.store.PolicyStore.subscribe`
  calls :meth:`ProofCache.invalidate_policy` whenever a newer version is
  installed.  The hook diffs the outgoing and incoming rule sets once
  (:func:`repro.policy.analyze.changed_predicates`), *re-points* to the new
  version every lineage of the outgoing version whose closure the diff
  provably cannot affect — one assignment, however many entries it holds —
  and drops the rest entry by entry (the whole domain, when the install's
  provenance is unknown).  An install costs the diff plus the entries it
  invalidates, never the size of the cache;
* **credential revocations** — :meth:`repro.policy.credentials.CARegistry.
  subscribe_revocations` calls :meth:`ProofCache.invalidate_credential`,
  dropping every entry whose credential set contains the revoked id.

The cache is deliberately **transparent to the simulation**: a hit still
consumes the configured ``proof_evaluation_time`` of simulated time and
still increments the Table I proof counters.  What it saves is *host* CPU
(signature hashing + derivation-tree search), which is what the wall-clock
benchmarks measure.  Enable/disable via
:attr:`repro.cloud.config.CloudConfig.enable_proof_cache`.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.obs.spans import Span, annotate
from repro.policy.analyze import HeldRules, changed_predicates, dependency_closure
from repro.policy.credentials import CARegistry, Credential
from repro.policy.policy import GUARD_PREDICATES, Operation, Policy, PolicyId
from repro.policy.proofs import (
    LocalRevocationChecker,
    ProofOfAuthorization,
    RevocationChecker,
    evaluate_proof,
)


class _Lineage:
    """The entries of one ``(policy id, goal predicate)`` under one version.

    The version lives here and not in the entry keys, so an install that
    provably cannot affect these entries carries all of them over by
    assigning :attr:`version`.  Lineages hash by identity.
    """

    __slots__ = ("policy_id", "goal", "version", "closure", "keys")

    def __init__(
        self, policy_id: PolicyId, goal: str, version: int, closure: FrozenSet[str]
    ) -> None:
        self.policy_id = policy_id
        self.goal = goal
        #: The one policy version the entries are currently valid for.
        self.version = version
        #: Every predicate a proof of ``goal`` may consult: the downward
        #: closure of the goal predicate over the rules of the version the
        #: lineage was born under (see
        #: :func:`repro.policy.analyze.dependency_closure`).  An install
        #: re-points a lineage only when its diff leaves the closure alone,
        #: and then the closure is the same under the new version.
        self.closure = closure
        #: Keys of the live entries, in insertion order.
        self.keys: Dict[CacheKey, None] = {}


#: (user, operation, items, credential ids, revocation-checker identity).
_QueryKey = Tuple[str, Operation, Tuple[str, ...], FrozenSet[str], object]

#: (lineage,) + the query key — with the policy id and version the lineage
#: stands for, everything a verdict depends on besides the position of
#: ``now`` relative to credential validity boundaries.
CacheKey = Tuple[_Lineage, str, Operation, Tuple[str, ...], FrozenSet[str], object]

#: LRU bound a server applies under ``CloudConfig.streaming_metrics``
#: (unbounded otherwise).  Sized so the working set of a contended scale
#: run (in-flight users x governing policies) fits while distinct-user
#: churn cannot grow the cache with the population.
STREAMING_PROOF_CACHE_CAPACITY = 4096


@dataclass
class _Entry:
    """One memoized evaluation with its temporal validity window."""

    #: As evaluated: ``policy_version`` is the lineage's version back then,
    #: and a hit replays the proof under the version it stands for now.
    proof: ProofOfAuthorization
    #: Verdicts are constant for ``window_start <= now < window_end``.
    window_start: float
    window_end: float


class ProofCache:
    """Per-server memo table for :func:`repro.policy.proofs.evaluate_proof`.

    ``stats`` is duck-typed (``on_hit``/``on_miss``/``on_bypass``/
    ``on_invalidation``, each taking the server name, plus an optional
    ``on_retention`` for entries an install *kept*); pass
    :class:`repro.metrics.counters.ProofCacheCounters` to export hit/miss/
    invalidation counts, or ``None`` to run unmetered.  ``capacity`` bounds
    the entry count with LRU eviction (``None`` = unbounded; simulations
    are finite, but long-running sweeps may want a ceiling).  Only a store
    or a hit makes an entry recent: an install does not touch the entries
    it retains, so it does not refresh them either.
    """

    def __init__(
        self,
        stats: Optional[object] = None,
        server: str = "",
        capacity: Optional[int] = None,
    ) -> None:
        self.stats = stats
        self.server = server
        self.capacity = capacity
        self._entries: "OrderedDict[CacheKey, _Entry]" = OrderedDict()
        #: policy id -> (version, goal predicate) -> lineage.  Only lineages
        #: with live entries are listed, so everything the cache knows per
        #: policy version is bounded by, and dies with, its entries.
        self._lineages: Dict[PolicyId, Dict[Tuple[int, str], _Lineage]] = {}
        #: policy id -> the rules of the version last diffed, moved by each
        #: diffed install; one set per domain, never one per version.
        self._held: Dict[PolicyId, HeldRules] = {}
        self._keys_by_credential: Dict[str, Set[CacheKey]] = {}

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
        """``evaluate_proof`` with memoization; verdict-identical to it.

        On a hit, the cached record is replayed with the caller's fresh
        ``query_id``, ``server``, and ``evaluated_at`` (those fields don't
        influence the verdict) and with the version of ``policy``, which is
        the version the entry's lineage stands for.  Anything that can't be
        keyed safely — an uncacheable checker, a malformed credential
        object — bypasses the cache and evaluates directly.  ``counters``
        (an :class:`~repro.policy.rules.EngineCounters`) is forwarded to
        the inference engine on misses and bypasses; hits do no inference,
        so they add nothing to it.  ``obs_span`` gets a ``cache`` attribute
        (``hit``/``miss``/``bypass``) plus the verdict.
        """
        revocation = revocation or LocalRevocationChecker(registry)
        query = self._query_key(user, operation, items, credentials, revocation)
        if query is None:
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
        if lineage is not None:
            key: CacheKey = (lineage,) + query
            entry = self._entries.get(key)
            if entry is not None and entry.window_start <= now < entry.window_end:
                self._entries.move_to_end(key)
                if self.stats is not None:
                    self.stats.on_hit(self.server)
                proof = replace(
                    entry.proof,
                    query_id=query_id,
                    server=server,
                    evaluated_at=now,
                    policy_version=policy.version,
                )
                annotate(
                    obs_span,
                    cache="hit",
                    granted=proof.granted,
                    reason=proof.reason,
                    version=proof.policy_version,
                )
                return proof

        annotate(obs_span, cache="miss")
        proof = evaluate_proof(
            policy, query_id, user, operation, items, credentials,
            server, now, registry, revocation, counters, obs_span,
        )
        if lineage is None:
            lineage = _Lineage(
                policy.policy_id,
                goal,
                policy.version,
                dependency_closure(policy.rules, (goal,)),
            )
            self._lineages.setdefault(policy.policy_id, {})[policy.version, goal] = lineage
        window_start, window_end = self._validity_window(credentials, now, revocation)
        self._store((lineage,) + query, _Entry(proof, window_start, window_end))
        if self.stats is not None:
            self.stats.on_miss(self.server)
        return proof

    # -- invalidation hooks ----------------------------------------------------------

    def invalidate_policy(
        self, policy: Policy, previous: Optional[Policy] = None
    ) -> int:
        """React to an install of ``policy``; returns entries dropped.

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
        under ``policy`` would reproduce each cached verdict, derivations,
        and reason exactly (``docs/policy-analysis.md`` § soundness).
        Lineages pinned to any *other* version are always dropped — they
        are stale deliveries we never diffed against, or were pre-created
        at the incoming version.  The work is the rules the install appends
        (both rule sets for any other change), one step per goal predicate,
        and one per entry dropped; the entries kept are counted, not visited.
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
        doomed: List[CacheKey] = []
        for lineage in domain.values():
            if lineage.version == outgoing and lineage.closure.isdisjoint(changed):
                kept.append(lineage)
            else:
                doomed.extend(lineage.keys)
        retained = sum(len(lineage.keys) for lineage in kept)
        if retained:
            on_retention = getattr(self.stats, "on_retention", None)
            if on_retention is not None:
                on_retention(self.server, retained)
        for lineage in kept:
            # An entry pre-created at the incoming version takes its kept
            # twin (same query, outgoing version) with it, uncounted: under
            # version-pinned keys the two collided and both went.  Dropping
            # is always safe, and every counter stays where it was.
            incoming = domain.get((policy.version, lineage.goal))
            if incoming is not None:
                for key in incoming.keys:
                    self._discard((lineage,) + key[1:])
        dropped = self._drop(doomed)
        for lineage in kept:
            if lineage.keys:
                del domain[lineage.version, lineage.goal]
                lineage.version = policy.version
                domain[lineage.version, lineage.goal] = lineage
        return dropped

    def invalidate_credential(self, cred_id: str) -> int:
        """Drop every entry whose credential set contains ``cred_id``.

        Wired to :meth:`CARegistry.subscribe_revocations`; revocation is
        the one mutation that changes a verdict while every key component
        stays equal, so this hook is load-bearing for correctness.
        """
        return self._drop(tuple(self._keys_by_credential.get(cred_id, ())))

    def clear(self) -> int:
        """Drop everything (counted as invalidations)."""
        count = len(self._entries)
        self._entries.clear()
        self._lineages.clear()
        self._held.clear()
        self._keys_by_credential.clear()
        if count and self.stats is not None:
            self.stats.on_invalidation(self.server, count)
        return count

    def __len__(self) -> int:
        return len(self._entries)

    # -- internals ------------------------------------------------------------------

    @staticmethod
    def _query_key(
        user: str,
        operation: Operation,
        items: Sequence[str],
        credentials: Sequence[Credential],
        revocation: RevocationChecker,
    ) -> Optional[_QueryKey]:
        """The entry key minus its lineage, or ``None`` if uncacheable."""
        token = revocation.cache_token()
        if token is None:
            return None
        cred_ids = []
        for credential in credentials:
            if not isinstance(credential, Credential):
                return None  # malformed objects: fail open to direct evaluation
            cred_ids.append(credential.cred_id)
        return (user, operation, tuple(items), frozenset(cred_ids), token)

    @staticmethod
    def _boundaries(
        credential: Credential, revocation: RevocationChecker
    ) -> Iterator[float]:
        yield credential.issued_at
        if credential.expires_at != float("inf"):
            yield credential.expires_at
        revoked_at = revocation.revocation_boundary(credential)
        if revoked_at is not None:
            yield revoked_at

    def _validity_window(
        self,
        credentials: Sequence[Credential],
        now: float,
        revocation: RevocationChecker,
    ) -> Tuple[float, float]:
        """Largest ``[start, end)`` around ``now`` free of validity flips.

        Every validity predicate flips exactly *at* its boundary b (valid
        from ``issued_at``, expired from ``expires_at``, revoked from
        ``revoked_at``), so verdicts are constant on the half-open interval
        between the nearest boundary at-or-before ``now`` and the nearest
        one strictly after it.
        """
        start, end = float("-inf"), float("inf")
        for credential in credentials:
            for boundary in self._boundaries(credential, revocation):
                if boundary <= now:
                    start = max(start, boundary)
                else:
                    end = min(end, boundary)
        return start, end

    def _store(self, key: CacheKey, entry: _Entry) -> None:
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = entry
        key[0].keys[key] = None
        for cred_id in key[4]:
            self._keys_by_credential.setdefault(cred_id, set()).add(key)
        if self.capacity is not None:
            while len(self._entries) > self.capacity:
                evicted, _ = self._entries.popitem(last=False)
                self._unindex(evicted)

    def _drop(self, keys: Iterable[CacheKey]) -> int:
        """Discard ``keys`` (a snapshot: the indexes change underneath)."""
        dropped = sum(self._discard(key) for key in keys)
        if dropped and self.stats is not None:
            self.stats.on_invalidation(self.server, dropped)
        return dropped

    def _discard(self, key: CacheKey) -> bool:
        if self._entries.pop(key, None) is None:
            return False
        self._unindex(key)
        return True

    def _unindex(self, key: CacheKey) -> None:
        """Forget a key just removed from ``_entries``; a lineage that
        loses its last entry is unlisted."""
        lineage = key[0]
        del lineage.keys[key]
        if not lineage.keys:
            domain = self._lineages[lineage.policy_id]
            del domain[lineage.version, lineage.goal]
            if not domain:
                del self._lineages[lineage.policy_id]
        for cred_id in key[4]:
            cred_keys = self._keys_by_credential[cred_id]
            cred_keys.discard(key)
            if not cred_keys:
                del self._keys_by_credential[cred_id]
