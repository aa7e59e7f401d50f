"""Unit tests for the version-aware proof-evaluation cache."""

import pytest

from repro.metrics.counters import ProofCacheCounters
from repro.policy.credentials import CARegistry, CertificateAuthority
from repro.policy.policy import GUARD_PREDICATES, Operation, Policy, PolicyId
from repro.policy.proofcache import ProofCache
from repro.policy.proofs import (
    LocalRevocationChecker,
    PrefetchedStatuses,
    evaluate_proof,
)
from repro.policy.rules import Atom, Rule, RuleSet, Variable
from repro.policy.store import PolicyStore
from repro.workloads.updates import benign_successor, restricting_successor
from tests.policy.proofcache_oracle import ProofCache as ReferenceProofCache
from tests.policy.test_proofcache_oracle import COUNTERS, entry_order

U, I = Variable("U"), Variable("I")


def member_policy(version=1):
    rules = RuleSet(
        [
            Rule(Atom("may_read", (U, I)), (Atom("role", (U, "member")), Atom("item", (I,)))),
            Rule(Atom("item", ("inventory",))),
            Rule(Atom("item", ("ledger",))),
        ]
    )
    return Policy(PolicyId("app"), version, rules)


def restricted_policy(version=2):
    """member_policy with a rewritten read guard (requires clearance)."""
    rules = RuleSet(
        [
            Rule(
                Atom("may_read", (U, I)),
                (
                    Atom("role", (U, "member")),
                    Atom("clearance", (U,)),
                    Atom("item", (I,)),
                ),
            ),
            Rule(Atom("item", ("inventory",))),
            Rule(Atom("item", ("ledger",))),
        ]
    )
    return Policy(PolicyId("app"), version, rules)


@pytest.fixture
def ca():
    return CertificateAuthority("ca")


@pytest.fixture
def registry(ca):
    return CARegistry([ca])


@pytest.fixture
def stats():
    return ProofCacheCounters()


@pytest.fixture
def cache(stats):
    return ProofCache(stats=stats, server="s1")


def cached_eval(cache, policy, registry, credentials, *, now=5.0, item="inventory",
                query_id="q1", operation=Operation.READ, revocation=None):
    return cache.evaluate(
        policy=policy,
        query_id=query_id,
        user="bob",
        operation=operation,
        items=[item],
        credentials=credentials,
        server="s1",
        now=now,
        registry=registry,
        revocation=revocation,
    )


class TestHitsAndMisses:
    def test_repeat_evaluation_hits(self, ca, registry, cache, stats):
        cred = ca.issue("bob", Atom("role", ("bob", "member")), 0.0)
        policy = member_policy()
        first = cached_eval(cache, policy, registry, [cred], now=5.0)
        second = cached_eval(cache, policy, registry, [cred], now=6.0, query_id="q2")
        assert (stats.misses, stats.hits) == (1, 1)
        assert second.granted is first.granted is True
        # Replayed fields are refreshed; verdict fields are identical.
        assert second.query_id == "q2" and second.evaluated_at == 6.0
        assert second.derivations == first.derivations
        assert second.assessments == first.assessments

    def test_hit_matches_uncached_verdict(self, ca, registry, cache):
        cred = ca.issue("bob", Atom("role", ("bob", "member")), 0.0)
        policy = member_policy()
        cached_eval(cache, policy, registry, [cred], now=5.0)
        hit = cached_eval(cache, policy, registry, [cred], now=6.0)
        fresh = evaluate_proof(
            policy, "q1", "bob", Operation.READ, ["inventory"], [cred],
            "s1", 6.0, registry,
        )
        assert hit == fresh

    def test_different_version_misses(self, ca, registry, cache, stats):
        cred = ca.issue("bob", Atom("role", ("bob", "member")), 0.0)
        cached_eval(cache, member_policy(1), registry, [cred])
        cached_eval(cache, member_policy(2), registry, [cred])
        assert stats.misses == 2 and stats.hits == 0

    def test_different_item_or_credentials_miss(self, ca, registry, cache, stats):
        cred = ca.issue("bob", Atom("role", ("bob", "member")), 0.0)
        other = ca.issue("bob", Atom("role", ("bob", "auditor")), 0.0)
        policy = member_policy()
        cached_eval(cache, policy, registry, [cred])
        cached_eval(cache, policy, registry, [cred], item="ledger")
        cached_eval(cache, policy, registry, [cred, other])
        assert stats.misses == 3 and stats.hits == 0

    def test_credential_order_is_irrelevant(self, ca, registry, cache, stats):
        """To the verdict, that is: the record cites the order presented —
        ``credential_ids``, ``assessments`` and the derivation's sources."""
        a = ca.issue("bob", Atom("role", ("bob", "member")), 0.0)
        b = ca.issue("bob", Atom("role", ("bob", "auditor")), 0.0)
        policy = member_policy()
        cached_eval(cache, policy, registry, [a, b])
        second = cached_eval(cache, policy, registry, [b, a])
        assert second == evaluate_proof(
            policy, "q1", "bob", Operation.READ, ["inventory"], [b, a], "s1", 5.0, registry
        )

    def test_malformed_credential_bypasses(self, registry, cache, stats):
        # Non-Credential objects can't be keyed; the cache fails open to
        # direct evaluation, which surfaces the same error it always did.
        with pytest.raises(AttributeError):
            cached_eval(cache, member_policy(), registry, ["not-a-credential"])
        assert stats.bypasses == 1 and stats.misses == 0
        assert len(cache) == 0


class TestForgedCredentials:
    """A credential forged under a cached credential's id and signature, or
    someone else's genuine one, gets no cached grant: the record equals
    ``evaluate_proof``'s."""

    @pytest.mark.parametrize(
        "user, forged",
        [("alice", ("alice", "admin")), ("mallory", ("mallory", "member"))],
        ids=["alice", "mallory"],
    )
    def test_a_forged_credential_is_not_answered_from_the_cache(
        self, ca, registry, cache, user, forged
    ):
        genuine = ca.issue("alice", Atom("role", ("alice", "member")), 0.0)
        policy = member_policy()
        assert cache.evaluate(
            policy, "q1", "alice", Operation.READ, ["inventory"], [genuine], "s1", 5.0, registry
        ).granted
        tampered = genuine.tampered(atom=Atom("role", forged))
        proof = cache.evaluate(
            policy, "q2", user, Operation.READ, ["inventory"], [tampered], "s1", 6.0, registry
        )
        assert proof == evaluate_proof(
            policy, "q2", user, Operation.READ, ["inventory"], [tampered], "s1", 6.0, registry
        )
        assert not proof.granted and proof.assessments[0].reason == "bad_signature"
        assert proof.reason.startswith("unprovable:")

    def test_someone_elses_credential_grants_nothing(self, ca, registry, cache):
        """``bob`` presenting ``alice``'s genuine credential: the pattern keeps
        that the user and the credential's subject differ."""
        genuine = ca.issue("alice", Atom("role", ("alice", "member")), 0.0)
        policy = member_policy()
        for user in ("alice", "bob", "alice", "bob"):
            args = (policy, "q", user, Operation.READ, ["inventory"], [genuine], "s1", 5.0,
                    registry)
            proof = cache.evaluate(*args)
            assert proof.granted is (user == "alice")
            assert proof == evaluate_proof(*args)

    def test_a_subject_named_by_a_rule_keeps_its_own_templates(self, ca, registry, cache):
        """``may_read(alice, ?I) :- item(?I)``: ``alice`` is a rule constant and
        stays in the pattern, so ``bob`` never reaches her template."""
        rules = RuleSet([
            Rule(Atom("may_read", ("alice", I)), (Atom("item", (I,)),)),
            Rule(Atom("item", ("inventory",))),
        ])
        policy = Policy(PolicyId("app"), 1, rules)
        for user, granted in (("alice", True), ("bob", False), ("alice", True), ("bob", False)):
            proof = cache.evaluate(
                policy, "q", user, Operation.READ, ["inventory"], [], "s1", 5.0, registry
            )
            assert proof.granted is granted
            assert proof == evaluate_proof(
                policy, "q", user, Operation.READ, ["inventory"], [], "s1", 5.0, registry
            )


class TestValidityWindows:
    def test_hit_blocked_across_expiry(self, ca, registry, cache, stats):
        cred = ca.issue("bob", Atom("role", ("bob", "member")), 0.0, expires_at=10.0)
        policy = member_policy()
        assert cached_eval(cache, policy, registry, [cred], now=5.0).granted
        # Same key, but now is past the expiry boundary: must re-evaluate.
        late = cached_eval(cache, policy, registry, [cred], now=11.0)
        assert not late.granted
        assert stats.hits == 0 and stats.misses == 2

    def test_hit_blocked_before_issue(self, ca, registry, cache, stats):
        cred = ca.issue("bob", Atom("role", ("bob", "member")), issued_at=4.0)
        policy = member_policy()
        assert not cached_eval(cache, policy, registry, [cred], now=2.0).granted
        assert cached_eval(cache, policy, registry, [cred], now=5.0).granted
        assert stats.misses == 2

    def test_known_revocation_bounds_window(self, ca, registry, cache, stats):
        cred = ca.issue("bob", Atom("role", ("bob", "member")), 0.0)
        ca.revoke(cred.cred_id, at_time=8.0)
        policy = member_policy()
        assert cached_eval(cache, policy, registry, [cred], now=5.0).granted
        assert not cached_eval(cache, policy, registry, [cred], now=9.0).granted
        assert stats.misses == 2

    def test_hit_within_window(self, ca, registry, cache, stats):
        cred = ca.issue("bob", Atom("role", ("bob", "member")), 0.0, expires_at=10.0)
        policy = member_policy()
        cached_eval(cache, policy, registry, [cred], now=5.0)
        assert cached_eval(cache, policy, registry, [cred], now=9.9).granted
        assert stats.hits == 1


class TestInvalidation:
    def test_policy_install_invalidates_via_store(self, ca, registry, cache, stats):
        store = PolicyStore([member_policy(1)])
        store.subscribe(cache.invalidate_policy)
        cred = ca.issue("bob", Atom("role", ("bob", "member")), 0.0)
        cached_eval(cache, store.current(PolicyId("app")), registry, [cred])
        assert len(cache) == 1
        # v2's rules are identical, so the install keeps the entry, now
        # standing for v2 — the next v2 evaluation hits.
        assert store.apply(member_policy(2))
        assert len(cache) == 1
        assert stats.invalidations == 0 and stats.retentions == 1
        cached_eval(cache, store.current(PolicyId("app")), registry, [cred])
        assert stats.hits == 1
        # v3 rewrites the may_read guard itself: the cached entry's
        # dependency closure is affected, so it must drop.
        assert store.apply(restricted_policy(3))
        assert len(cache) == 0
        assert stats.invalidations == 1

    def test_install_of_unknown_provenance_drops_domain(self, ca, registry, cache, stats):
        cred = ca.issue("bob", Atom("role", ("bob", "member")), 0.0)
        cached_eval(cache, member_policy(1), registry, [cred])
        # No previous version to diff against: identical rules, still drops.
        assert cache.invalidate_policy(member_policy(2)) == 1
        assert len(cache) == 0
        assert stats.invalidations == 1 and stats.retentions == 0

    def test_stale_install_does_not_invalidate(self, ca, registry, cache, stats):
        store = PolicyStore([member_policy(3)])
        store.subscribe(cache.invalidate_policy)
        cred = ca.issue("bob", Atom("role", ("bob", "member")), 0.0)
        cached_eval(cache, store.current(PolicyId("app")), registry, [cred])
        assert not store.apply(member_policy(2))  # out-of-order replication
        assert len(cache) == 1 and stats.invalidations == 0

    def test_revocation_invalidates_via_registry(self, ca, registry, cache, stats):
        registry.subscribe_revocations(
            lambda record: cache.invalidate_credential(record.cred_id)
        )
        cred = ca.issue("bob", Atom("role", ("bob", "member")), 0.0)
        other = ca.issue("bob", Atom("role", ("bob", "auditor")), 0.0)
        policy = member_policy()
        cached_eval(cache, policy, registry, [cred])
        cached_eval(cache, policy, registry, [other])
        ca.revoke(cred.cred_id, at_time=6.0)
        # The revocation drops the credential's verdict, and only that.
        assert stats.invalidations == 1
        assert set(cache._verdicts) == {other.cred_id}
        # The next lookup re-assesses the credential and is denied.
        assert not cached_eval(cache, policy, registry, [cred], now=7.0).granted
        assert cache._verdicts[cred.cred_id].assessment.reason == "revoked"

    def test_revocation_racing_policy_install(self, ca, registry, cache, stats):
        """A retained template must not outlive a later revocation: the
        revocation drops the verdict, whatever the install kept."""
        store = PolicyStore([member_policy(1)])
        store.subscribe(cache.invalidate_policy)
        registry.subscribe_revocations(
            lambda record: cache.invalidate_credential(record.cred_id)
        )
        cred = ca.issue("bob", Atom("role", ("bob", "member")), 0.0)
        cached_eval(cache, store.current(PolicyId("app")), registry, [cred])
        assert store.apply(member_policy(2))  # identical rules: retained
        assert len(cache) == 1 and stats.retentions == 1
        ca.revoke(cred.cred_id, at_time=6.0)
        assert not cache._verdicts and stats.invalidations == 1
        proof = cached_eval(cache, store.current(PolicyId("app")), registry, [cred], now=7.0)
        assert not proof.granted and proof.policy_version == 2

    def test_install_racing_revocation(self, ca, registry, cache, stats):
        """Reverse order: the revocation drops the verdict first; the install
        then retains the template, which must not resurrect the verdict."""
        store = PolicyStore([member_policy(1)])
        store.subscribe(cache.invalidate_policy)
        registry.subscribe_revocations(
            lambda record: cache.invalidate_credential(record.cred_id)
        )
        cred = ca.issue("bob", Atom("role", ("bob", "member")), 0.0)
        cached_eval(cache, store.current(PolicyId("app")), registry, [cred])
        ca.revoke(cred.cred_id, at_time=6.0)
        assert not cache._verdicts and stats.invalidations == 1
        assert store.apply(member_policy(2))
        assert len(cache) == 1 and stats.retentions == 1
        # Post-install, post-revocation evaluation reflects both facts.
        proof = cached_eval(
            cache, store.current(PolicyId("app")), registry, [cred], now=7.0
        )
        assert not proof.granted

    def test_precise_drops_entries_pinned_to_other_versions(
        self, ca, registry, cache, stats
    ):
        """Only entries of the exact outgoing version are diffed; anything
        older was never compared and must drop."""
        cred = ca.issue("bob", Atom("role", ("bob", "member")), 0.0)
        cached_eval(cache, member_policy(1), registry, [cred])
        cached_eval(cache, member_policy(2), registry, [cred])
        assert len(cache) == 2
        store = PolicyStore([member_policy(2)])
        store.subscribe(cache.invalidate_policy)
        assert store.apply(member_policy(3))  # identical rules vs v2
        # v2 entry retained (re-pointed to v3); v1 entry dropped.
        assert len(cache) == 1
        assert stats.retentions == 1 and stats.invalidations == 1
        cached_eval(cache, store.current(PolicyId("app")), registry, [cred])
        assert stats.hits == 1

    def test_registry_subscription_covers_future_authorities(self, registry, cache):
        registry.subscribe_revocations(
            lambda record: cache.invalidate_credential(record.cred_id)
        )
        late_ca = CertificateAuthority("late")
        registry.add(late_ca)
        cred = late_ca.issue("bob", Atom("role", ("bob", "member")), 0.0)
        cached_eval(cache, member_policy(), registry, [cred])
        assert list(cache._verdicts) == [cred.cred_id]
        late_ca.revoke(cred.cred_id, 1.0)
        assert not cache._verdicts
        assert not cached_eval(cache, member_policy(), registry, [cred]).granted


class TestLRUInteraction:
    """Precise invalidation under a bounded (streaming-mode) cache."""

    def test_rekeyed_entries_respect_capacity(self, ca, registry):
        stats = ProofCacheCounters()
        cache = ProofCache(stats=stats, server="s1", capacity=2)
        store = PolicyStore([member_policy(1)])
        store.subscribe(cache.invalidate_policy)
        cred = ca.issue("bob", Atom("role", ("bob", "member")), 0.0)
        cached_eval(cache, store.current(PolicyId("app")), registry, [cred])
        cached_eval(
            cache, store.current(PolicyId("app")), registry, [cred], item="ledger"
        )
        assert len(cache) == 2
        assert store.apply(member_policy(2))  # identical rules: both retained
        assert len(cache) == 2 and stats.retentions == 2
        # Both retained entries hit under the new version.
        cached_eval(cache, store.current(PolicyId("app")), registry, [cred])
        cached_eval(
            cache, store.current(PolicyId("app")), registry, [cred], item="ledger"
        )
        assert stats.hits == 2
        # A third distinct entry still triggers LRU eviction at capacity.
        other = ca.issue("eve", Atom("role", ("eve", "member")), 0.0)
        cache.evaluate(
            policy=store.current(PolicyId("app")), query_id="q9", user="eve",
            operation=Operation.READ, items=["inventory"], credentials=[other],
            server="s1", now=5.0, registry=registry,
        )
        assert len(cache) == 2

    def test_eviction_keeps_indexes_consistent_after_rekey(self, ca, registry):
        stats = ProofCacheCounters()
        cache = ProofCache(stats=stats, server="s1", capacity=1)
        store = PolicyStore([member_policy(1)])
        store.subscribe(cache.invalidate_policy)
        cred = ca.issue("bob", Atom("role", ("bob", "member")), 0.0)
        cached_eval(cache, store.current(PolicyId("app")), registry, [cred])
        assert store.apply(member_policy(2))
        # The retained template is evicted by a new store; invalidating the
        # credential drops its verdict (a second time is a no-op, not a
        # KeyError), and the next lookup re-assesses it and is denied.
        cached_eval(
            cache, store.current(PolicyId("app")), registry, [cred], item="ledger"
        )
        assert len(cache) == 1
        ca.revoke(cred.cred_id, at_time=6.0)
        assert cache.invalidate_credential(cred.cred_id) == 1
        assert cache.invalidate_credential(cred.cred_id) == 0
        assert not cache._verdicts
        assert not cached_eval(
            cache, store.current(PolicyId("app")), registry, [cred], now=7.0, item="ledger"
        ).granted

    def test_install_does_not_refresh_what_it_retains(self, ca, registry):
        """Only a store or a hit makes an entry recent.  In a bounded cache
        that holds two domains, an install in one of them leaves its
        retained entry where it was, so it stays the next victim."""
        stats = ProofCacheCounters()
        cache = ProofCache(stats=stats, server="s1", capacity=2)
        cred = ca.issue("bob", Atom("role", ("bob", "member")), 0.0)
        app, hr = member_policy(1), Policy(PolicyId("hr"), 1, member_policy().rules)
        cached_eval(cache, app, registry, [cred])  # oldest
        cached_eval(cache, hr, registry, [cred])
        assert cache.invalidate_policy(member_policy(2), app) == 0
        assert stats.retentions == 1
        cached_eval(cache, hr, registry, [cred], item="ledger")  # evicts app's
        cached_eval(cache, hr, registry, [cred])
        assert stats.hits == 1
        cached_eval(cache, member_policy(2), registry, [cred])
        assert stats.misses == 4

    def test_clear_counts_invalidations(self, ca, registry, cache, stats):
        cred = ca.issue("bob", Atom("role", ("bob", "member")), 0.0)
        cached_eval(cache, member_policy(), registry, [cred])
        assert cache.clear() == 1
        assert stats.invalidations == 1


class TestCheckerIdentity:
    def test_prefetched_statuses_key_on_content(self, ca, registry, cache, stats):
        cred = ca.issue("bob", Atom("role", ("bob", "member")), 0.0)
        policy = member_policy()
        clean = PrefetchedStatuses({cred.cred_id: True})
        clean_again = PrefetchedStatuses({cred.cred_id: True})
        revoked = PrefetchedStatuses({cred.cred_id: False})
        assert cached_eval(cache, policy, registry, [cred], revocation=clean).granted
        assert cached_eval(cache, policy, registry, [cred], revocation=clean_again).granted
        assert stats.hits == 1  # equal content, fresh object
        assert not cached_eval(cache, policy, registry, [cred], revocation=revoked).granted
        assert stats.misses == 2  # different content, different key

    def test_uncacheable_checker_bypasses(self, ca, registry, cache, stats):
        class Oracle(LocalRevocationChecker):
            def cache_token(self):
                return None

        cred = ca.issue("bob", Atom("role", ("bob", "member")), 0.0)
        proof = cached_eval(
            cache, member_policy(), registry, [cred], revocation=Oracle(registry)
        )
        assert proof.granted
        assert stats.bypasses == 1 and len(cache) == 0


class TestCapacity:
    def test_lru_eviction_respects_capacity(self, ca, registry, stats):
        cache = ProofCache(stats=stats, server="s1", capacity=2)
        cred = ca.issue("bob", Atom("role", ("bob", "member")), 0.0)
        policy = member_policy()
        cached_eval(cache, policy, registry, [cred], item="inventory")
        cached_eval(cache, policy, registry, [cred], item="ledger")
        cached_eval(cache, policy, registry, [cred], item="missing")  # evicts oldest
        assert len(cache) == 2
        cached_eval(cache, policy, registry, [cred], item="inventory")
        assert stats.misses == 4  # the evicted entry had to be recomputed


class TestConstantMemoryUnderPolicyChurn:
    """``streaming_metrics`` promises memory independent of run length; a
    long policy storm must leave nothing behind per version it went through."""

    @staticmethod
    def held(cache):
        """Items in every container the cache owns."""
        return sum(
            len(value) for value in vars(cache).values() if isinstance(value, (dict, set, list))
        )

    def test_no_state_per_version_survives_its_entries(self, ca, registry, stats):
        cache = ProofCache(stats=stats, server="s1", capacity=8)
        store = PolicyStore([member_policy(1)])
        store.subscribe(cache.invalidate_policy)
        pid = PolicyId("app")
        cred = ca.issue("bob", Atom("role", ("bob", "member")), 0.0)
        for round_ in range(500):
            outgoing = store.current(pid)
            assert store.apply(outgoing.successor(benign_successor(outgoing)))
            for operation in Operation:
                cached_eval(
                    cache, store.current(pid), registry, [cred],
                    item=f"item{round_ % 3}", operation=operation,
                )
            # A transaction still pinned to the version just replaced.
            cached_eval(cache, outgoing, registry, [cred])
        assert stats.retentions > 500 and stats.hits > 500
        assert store.apply(store.current(pid).successor(benign_successor(store.current(pid))))
        # templates + live verdicts + one domain + the domain's held rules:
        # nothing that grew with 500
        assert self.held(cache) <= len(cache) + len(cache._verdicts) + 2
        # ... and what is held for the domain is the *current* version's rules,
        # the very rule set the store holds, not anything of the 500 it went through.
        (held,) = cache._held.values()
        assert held.rules is store.current(pid).rules
        assert held.distinct == set(held.rules)
        lineages = [lineage for domain in cache._lineages.values() for lineage in domain.values()]
        assert 0 < len(lineages) <= len(GUARD_PREDICATES)
        assert {lineage.version for lineage in lineages} == {store.version_of(pid)}

    def test_clear_leaves_nothing_behind(self, ca, registry, cache):
        cred = ca.issue("bob", Atom("role", ("bob", "member")), 0.0)
        for version in (1, 2, 3):
            cached_eval(cache, member_policy(version), registry, [cred])
        assert cache.clear() == 3
        assert self.held(cache) == 0

    def test_clear_drops_the_held_rules(self, ca, registry, cache):
        store = PolicyStore([member_policy(1)])
        store.subscribe(cache.invalidate_policy)
        cred = ca.issue("bob", Atom("role", ("bob", "member")), 0.0)
        current = store.current(PolicyId("app"))
        cached_eval(cache, current, registry, [cred])
        assert store.apply(current.successor(benign_successor(current)))
        assert len(cache) == 1 and len(cache._held) == 1
        cache.clear()
        assert self.held(cache) == 0


class TestInstallsThatPassTheHolderBy:
    """``invalidate_policy`` returns before diffing when the domain has nothing
    cached, so the rules held for the domain can be versions behind the store.
    The next diffed install must notice: every counter and every surviving
    entry equals the version-pinned reference's, driven through the same steps.
    The domain is emptied by eviction (the holder stays and goes stale) or by
    ``clear()`` (it is dropped); a revocation no longer empties it."""

    @pytest.mark.parametrize("evict", ["eviction", "clear"])
    @pytest.mark.parametrize("skipped", ["benign", "restricting"])
    @pytest.mark.parametrize("last", ["benign", "restricting"])
    def test_a_stranded_holder_is_noticed(self, evict, skipped, last):
        successors = {
            "benign": benign_successor,
            "restricting": lambda policy: restricting_successor(policy, f"role{policy.version}"),
        }

        def drive(cache_class):
            ca = CertificateAuthority("ca")
            registry = CARegistry([ca])
            stats = ProofCacheCounters()
            cache = cache_class(stats=stats, server="s1", capacity=2)
            registry.subscribe_revocations(
                lambda record: cache.invalidate_credential(record.cred_id)
            )
            store = PolicyStore([member_policy(1)])
            store.subscribe(cache.invalidate_policy)
            pid = PolicyId("app")
            log = []

            def install(kind):
                current = store.current(pid)
                assert store.apply(current.successor(successors[kind](current)))
                log.append((tuple(getattr(stats, name) for name in COUNTERS), entry_order(cache)))

            def warm(cred):
                for item in ("inventory", "ledger"):
                    cached_eval(cache, store.current(pid), registry, [cred], item=item)

            first = ca.issue("bob", Atom("role", ("bob", "member")), 0.0)
            warm(first)
            install("benign")  # diffed: the domain's rules are held from here on
            assert stats.retentions == 2
            if evict == "clear":
                cache.clear()  # drops the held rules with the entries
            else:  # another domain's two entries evict the domain, not the holder
                hr = Policy(PolicyId("hr"), 1, member_policy().rules)
                for item in ("inventory", "ledger"):
                    cached_eval(cache, hr, registry, [first], item=item)
            assert not [entry for entry in entry_order(cache) if entry[0] == pid]
            for _ in range(3):
                install(skipped)  # nothing cached: returns before the diff
            warm(ca.issue("bob", Atom("role", ("bob", "member")), 2.0))
            install(last)  # diffed against a version the holder never saw
            return log

        mine, reference = drive(ProofCache), drive(ReferenceProofCache)
        assert mine == reference
        counters, entries = mine[-1]
        retentions, survivors = counters[COUNTERS.index("retentions")], len(entries)
        # Whatever was skipped, only the last install decides what survives it.
        assert (retentions, survivors) == ((4, 2) if last == "benign" else (2, 0))
