"""The proof cache's reference implementation (the oracle, not a path).

This is ``repro.policy.proofcache`` as it stood while the policy version was
a component of every entry key: an install pops, re-hashes, re-stamps and
re-indexes each entry it decides to keep (:meth:`ProofCache._rekey`), and
every entry carries its own dependency closure.  The code below the imports
is that module verbatim.  It is kept because it states the semantics one
entry at a time — which entries an install keeps, which it drops, what a
replayed proof says, which entry the LRU bound evicts — and
``test_proofcache_oracle.py`` requires the lineage cache to reproduce all of
it on random schedules.

Do not optimize this module, and import it from nothing under ``src/``.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Dict, FrozenSet, Iterator, Optional, Sequence, Set, Tuple

from repro.obs.spans import Span, annotate
from repro.policy.analyze import changed_predicates, dependency_closure
from repro.policy.credentials import CARegistry, Credential
from repro.policy.policy import GUARD_PREDICATES, Operation, Policy, PolicyId
from repro.policy.proofs import (
    LocalRevocationChecker,
    ProofOfAuthorization,
    RevocationChecker,
    evaluate_proof,
)

#: (policy id, policy version, user, operation, items, credential ids,
#:  revocation-checker identity) — everything a verdict depends on besides
#: the position of ``now`` relative to credential validity boundaries.
CacheKey = Tuple[
    PolicyId, int, str, Operation, Tuple[str, ...], FrozenSet[str], object
]

#: LRU bound a server applies under ``CloudConfig.streaming_metrics``
#: (unbounded otherwise).  Sized so the working set of a contended scale
#: run (in-flight users x governing policies) fits while distinct-user
#: churn cannot grow the cache with the population.
STREAMING_PROOF_CACHE_CAPACITY = 4096


@dataclass
class _Entry:
    """One memoized evaluation with its temporal validity window."""

    proof: ProofOfAuthorization
    #: Verdicts are constant for ``window_start <= now < window_end``.
    window_start: float
    window_end: float
    #: Every predicate this proof's derivation may have consulted: the
    #: downward closure of the goal predicate over the policy version the
    #: proof was evaluated under (see
    #: :func:`repro.policy.analyze.dependency_closure`).  Captured at store
    #: time so a later policy install can decide whether this entry could
    #: possibly be affected by the diff.
    deps: FrozenSet[str] = frozenset()


class ProofCache:
    """Per-server memo table for :func:`repro.policy.proofs.evaluate_proof`.

    ``stats`` is duck-typed (``on_hit``/``on_miss``/``on_bypass``/
    ``on_invalidation``, each taking the server name, plus an optional
    ``on_retention`` for entries an install *kept*); pass
    :class:`repro.metrics.counters.ProofCacheCounters` to export hit/miss/
    invalidation counts, or ``None`` to run unmetered.  ``capacity`` bounds
    the entry count with LRU eviction (``None`` = unbounded; simulations
    are finite, but long-running sweeps may want a ceiling).
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
        self._keys_by_policy: Dict[PolicyId, Set[CacheKey]] = {}
        self._keys_by_credential: Dict[str, Set[CacheKey]] = {}
        #: (policy id, version, goal predicate) -> dependency closure; the
        #: closure is a pure function of the version's rules, so memoizing
        #: it makes per-entry dependency capture O(1) after the first
        #: evaluation under a version.
        self._deps_memo: Dict[Tuple[PolicyId, int, str], FrozenSet[str]] = {}

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
        influence the verdict).  Anything that can't be keyed safely — an
        uncacheable checker, a malformed credential object — bypasses the
        cache and evaluates directly.  ``counters`` (an
        :class:`~repro.policy.rules.EngineCounters`) is forwarded to the
        inference engine on misses and bypasses; hits do no inference, so
        they add nothing to it.  ``obs_span`` gets a ``cache`` attribute
        (``hit``/``miss``/``bypass``) plus the verdict.
        """
        revocation = revocation or LocalRevocationChecker(registry)
        key = self._key(policy, user, operation, items, credentials, revocation)
        if key is None:
            if self.stats is not None:
                self.stats.on_bypass(self.server)
            annotate(obs_span, cache="bypass")
            return evaluate_proof(
                policy, query_id, user, operation, items, credentials,
                server, now, registry, revocation, counters, obs_span,
            )

        entry = self._entries.get(key)
        if entry is not None and entry.window_start <= now < entry.window_end:
            self._entries.move_to_end(key)
            if self.stats is not None:
                self.stats.on_hit(self.server)
            proof = replace(
                entry.proof, query_id=query_id, server=server, evaluated_at=now
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
        window_start, window_end = self._validity_window(credentials, now, revocation)
        deps = self._deps_for(policy, operation)
        self._store(key, _Entry(proof, window_start, window_end, deps))
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
        diffed (:func:`~repro.policy.analyze.changed_predicates`) and the
        hook *keeps* every entry of the outgoing
        version whose captured dependency closure is disjoint from the
        changed predicates, re-keying it to the new version number: such
        an entry's reachable rule fragment is rule-for-rule identical
        under both versions, so a fresh evaluation under ``policy`` would
        reproduce the cached verdict, derivations, and reason exactly
        (``docs/policy-analysis.md`` § soundness).  Entries pinned to any
        *other* version are always dropped — they are stale deliveries we
        never diffed against.
        """
        if (
            previous is None
            or previous.policy_id != policy.policy_id
            or previous.version >= policy.version
        ):
            keys = self._keys_by_policy.pop(policy.policy_id, set())
            return self._drop(keys)

        changed = changed_predicates(previous.rules, policy.rules)
        domain_keys = self._keys_by_policy.get(policy.policy_id, set())
        # Iterate in entry insertion order (never raw set order) so the
        # LRU sequence after an install is hash-seed independent.
        ordered = [key for key in self._entries if key in domain_keys]
        to_drop: Set[CacheKey] = set()
        retained = 0
        for key in ordered:
            if key[1] != previous.version:
                to_drop.add(key)
                continue
            entry = self._entries[key]
            if entry.deps & changed:
                to_drop.add(key)
                continue
            self._rekey(key, entry, policy.version)
            retained += 1
        if retained:
            on_retention = getattr(self.stats, "on_retention", None)
            if on_retention is not None:
                on_retention(self.server, retained)
        return self._drop(to_drop)

    def invalidate_credential(self, cred_id: str) -> int:
        """Drop every entry whose credential set contains ``cred_id``.

        Wired to :meth:`CARegistry.subscribe_revocations`; revocation is
        the one mutation that changes a verdict while every key component
        stays equal, so this hook is load-bearing for correctness.
        """
        keys = self._keys_by_credential.pop(cred_id, set())
        return self._drop(keys)

    def clear(self) -> int:
        """Drop everything (counted as invalidations)."""
        count = len(self._entries)
        self._entries.clear()
        self._keys_by_policy.clear()
        self._keys_by_credential.clear()
        if count and self.stats is not None:
            self.stats.on_invalidation(self.server, count)
        return count

    def __len__(self) -> int:
        return len(self._entries)

    # -- internals ------------------------------------------------------------------

    def _key(
        self,
        policy: Policy,
        user: str,
        operation: Operation,
        items: Sequence[str],
        credentials: Sequence[Credential],
        revocation: RevocationChecker,
    ) -> Optional[CacheKey]:
        token = revocation.cache_token()
        if token is None:
            return None
        cred_ids = []
        for credential in credentials:
            if not isinstance(credential, Credential):
                return None  # malformed objects: fail open to direct evaluation
            cred_ids.append(credential.cred_id)
        return (
            policy.policy_id,
            policy.version,
            user,
            operation,
            tuple(items),
            frozenset(cred_ids),
            token,
        )

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

    def _deps_for(self, policy: Policy, operation: Operation) -> FrozenSet[str]:
        """Dependency closure of ``operation``'s goal predicate, memoized.

        Every goal :meth:`~repro.policy.policy.Policy.goal` builds for one
        evaluation shares the same guard predicate, so one closure covers
        the whole entry regardless of how many items it touched.
        """
        goal = GUARD_PREDICATES[operation]
        memo_key = (policy.policy_id, policy.version, goal)
        deps = self._deps_memo.get(memo_key)
        if deps is None:
            deps = dependency_closure(policy.rules, (goal,))
            self._deps_memo[memo_key] = deps
        return deps

    def _rekey(self, key: CacheKey, entry: _Entry, new_version: int) -> None:
        """Carry ``entry`` over to ``new_version`` of the same policy.

        Only called when the entry's dependency closure is untouched by
        the diff, which also means the closure itself is identical under
        the new version — so ``deps`` carries over unchanged.  The entry
        moves to the most-recent end of the LRU order (deterministically:
        callers iterate in insertion order).
        """
        self._entries.pop(key)
        self._unindex(key)
        new_key: CacheKey = (
            key[0], new_version, key[2], key[3], key[4], key[5], key[6]
        )
        entry.proof = replace(entry.proof, policy_version=new_version)
        self._entries[new_key] = entry
        self._keys_by_policy.setdefault(new_key[0], set()).add(new_key)
        for cred_id in new_key[5]:
            self._keys_by_credential.setdefault(cred_id, set()).add(new_key)

    def _store(self, key: CacheKey, entry: _Entry) -> None:
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = entry
        self._keys_by_policy.setdefault(key[0], set()).add(key)
        for cred_id in key[5]:
            self._keys_by_credential.setdefault(cred_id, set()).add(key)
        if self.capacity is not None:
            while len(self._entries) > self.capacity:
                evicted, _ = self._entries.popitem(last=False)
                self._unindex(evicted)

    def _drop(self, keys: Set[CacheKey]) -> int:
        dropped = 0
        for key in keys:
            if self._entries.pop(key, None) is not None:
                dropped += 1
            self._unindex(key)
        if dropped and self.stats is not None:
            self.stats.on_invalidation(self.server, dropped)
        return dropped

    def _unindex(self, key: CacheKey) -> None:
        policy_keys = self._keys_by_policy.get(key[0])
        if policy_keys is not None:
            policy_keys.discard(key)
            if not policy_keys:
                self._keys_by_policy.pop(key[0], None)
        for cred_id in key[5]:
            cred_keys = self._keys_by_credential.get(cred_id)
            if cred_keys is not None:
                cred_keys.discard(key)
                if not cred_keys:
                    self._keys_by_credential.pop(cred_id, None)
