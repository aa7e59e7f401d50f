"""The proof cache against ``evaluate_proof`` and the version-pinned reference.

Every record :meth:`~repro.policy.proofcache.ProofCache.evaluate` returns
must equal :func:`~repro.policy.proofs.evaluate_proof`'s for the same
arguments — every field, derivations and their sources included — on seeded
random schedules of evaluations, installs, revocations and ``clear()`` and
on named hard cases the schedules never draw (a forged credential, a
reordered or foreign credential set, a rule naming a subject).  Four seeded
mutants of the cache must each be caught by name.

:class:`tests.policy.proofcache_oracle.ProofCache` stays the oracle for what
an install may keep: on every lineage both caches hold before an install,
both must make the same decision — re-point it to the new version or drop it.
"""

import random
import sys

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.metrics.counters import ProofCacheCounters
from repro.policy import proofcache
from repro.policy.credentials import CARegistry, CertificateAuthority
from repro.policy.policy import GUARD_PREDICATES, Operation, Policy, PolicyId
from repro.policy.proofcache import ProofCache
from repro.policy.proofs import LocalRevocationChecker, PrefetchedStatuses, evaluate_proof
from repro.policy.rules import Atom, Rule, RuleSet, Variable
from repro.policy.store import PolicyStore
from tests.policy.proofcache_oracle import ProofCache as ReferenceProofCache

U, I = Variable("U"), Variable("I")
DOMAINS = ("app", "hr")
USERS = ("bob", "eve")
ITEMS = ("inventory", "ledger", "missing")
#: What a successor rewrites: nothing a proof can reach, one guard, the
#: other guard, or the ``item`` facts both guards consult.
KINDS = ("benign", "may_read", "may_write", "item")
#: What the install hook is told it replaced: the version it did replace, or
#: one of the three things it cannot diff against.
PROVENANCE = ("known", "none", "not-older", "foreign")
COUNTERS = ("hits", "misses", "bypasses", "invalidations", "retentions")
#: A capacity no schedule here reaches: the cache never evicts.
UNBOUNDED = sys.maxsize


def first_version(admin):
    return Policy(
        PolicyId(admin),
        1,
        RuleSet(
            [
                Rule(Atom("may_read", (U, I)), (Atom("role", (U, "member")), Atom("item", (I,)))),
                Rule(Atom("may_write", (U, I)), (Atom("role", (U, "editor")), Atom("item", (I,)))),
                Rule(Atom("item", ("inventory",))),
                Rule(Atom("item", ("ledger",))),
            ]
        ),
    )


def successor(policy, kind, stride):
    """``policy`` ``stride`` versions later, extended or rewritten as ``kind`` says."""
    version = policy.version + stride
    if kind in ("benign", "item"):
        appended = Atom(f"revision_{version}", ()) if kind == "benign" else Atom("item", (f"extra_{version}",))
        return Policy(policy.policy_id, version, policy.rules.extended((Rule(appended),)))
    # Otherwise toggle a clearance condition on one guard.
    rules = list(policy.rules.rules)
    index = next(i for i, rule in enumerate(rules) if rule.head.predicate == kind)
    clearance = Atom("clearance", (U,))
    body = tuple(atom for atom in rules[index].body if atom != clearance)
    if len(body) == len(rules[index].body):
        body += (clearance,)
    rules[index] = Rule(rules[index].head, body)
    return Policy(policy.policy_id, version, RuleSet(rules))


def schedule(seed, length, n_domains):
    """A seeded random schedule; every draw is universe-independent.

    Evaluations dominate, over a query space small enough that the same
    query recurs under the current version, under a pinned older snapshot
    and under the next version before the store installs it.  Installs are
    mostly benign (the case the cache retains), sometimes restricting,
    sometimes two versions ahead (which strands the pre-delivered one) and
    sometimes of unknown provenance.  Time drifts across issue and expiry
    instants; revocations land at the current time.
    """
    rng = random.Random(seed)
    ops = []
    for _ in range(length):
        draw = rng.random()
        domain = rng.choice(DOMAINS[:n_domains])
        if draw < 0.66:
            ops.append(
                (
                    "evaluate",
                    domain,
                    rng.choices(("current", "older", "newer"), (0.6, 0.2, 0.2))[0],
                    rng.random(),
                    rng.choice(USERS),
                    rng.choice(list(Operation)),
                    tuple(rng.sample(ITEMS, rng.choice((1, 1, 2)))),
                    tuple(index for index in range(4) if rng.random() < 0.6),
                    rng.choices(("local", "prefetched", "opaque"), (0.85, 0.1, 0.05))[0],
                    rng.choice((0.0, 0.0, 0.5, 4.0)),
                )
            )
        elif draw < 0.90:
            ops.append(
                (
                    "install",
                    domain,
                    rng.choices(KINDS, (0.55, 0.15, 0.15, 0.15))[0],
                    rng.choice((1, 1, 1, 2)),
                    rng.choices(PROVENANCE, (0.88, 0.04, 0.04, 0.04))[0],
                )
            )
        elif draw < 0.99:
            ops.append(("revoke", rng.choice(USERS), rng.randrange(4)))
        else:
            ops.append(("clear",))
    return ops


class Opaque(LocalRevocationChecker):
    """A checker with no cache identity: every evaluation bypasses."""

    def cache_token(self):
        return None


def entry_order(cache):
    """Live entries (templates, for the lineage cache), eviction victim first,
    as ``(policy id, version, goal predicate)``."""
    if isinstance(cache, ReferenceProofCache):
        return [(key[0], key[1], GUARD_PREDICATES[key[3]]) for key in cache._entries]
    return [(lineage.policy_id, lineage.version, lineage.goal) for lineage, _ in cache._templates]


def lineages(cache):
    """``(policy id, goal predicate, version)`` of everything the cache holds."""
    return {(policy_id, goal, version) for policy_id, version, goal in entry_order(cache)}


def replay(cache_class, ops, capacity, n_domains=1):
    """Everything observable about one schedule.

    Per evaluation the cache's record and ``evaluate_proof``'s for the same
    arguments; per install ``(policy id, outgoing, incoming, held before,
    held after)``; after every step the counters, ``len(cache)`` and the
    eviction order.
    """
    ca = CertificateAuthority("ca")
    registry = CARegistry([ca])
    stats = ProofCacheCounters()
    cache = cache_class(stats=stats, server="s1", capacity=capacity)
    registry.subscribe_revocations(lambda record: cache.invalidate_credential(record.cred_id))
    credentials = {
        user: (
            ca.issue(user, Atom("role", (user, "member")), 0.0),
            ca.issue(user, Atom("role", (user, "editor")), 12.0, expires_at=45.0),
            ca.issue(user, Atom("clearance", (user,)), 0.0, expires_at=30.0),
            ca.issue(user, Atom("role", (user, "auditor")), 25.0),
        )
        for user in USERS
    }
    history = {admin: [first_version(admin)] for admin in DOMAINS}
    pending = {}  # the next version, delivered before its install
    now = 1.0
    log = []
    for op in ops:
        if op[0] == "evaluate":
            _, admin, which, pick, user, operation, items, indexes, checker, dt = op
            now += dt
            versions = history[admin]
            if which == "older":
                policy = versions[int(pick * len(versions))]
            elif which == "newer":
                policy = pending.setdefault(
                    admin, successor(versions[-1], KINDS[int(pick * len(KINDS))], 1)
                )
            else:
                policy = versions[-1]
            presented = [credentials[user][index] for index in indexes]
            if checker == "prefetched":
                revocation = PrefetchedStatuses(
                    {c.cred_id: ca.revocation(c.cred_id) is None for c in presented}
                )
            else:
                revocation = Opaque(registry) if checker == "opaque" else None
            args = (policy, f"q{len(log)}", user, operation, items, presented, "s1", now, registry)
            log.append((cache.evaluate(*args, revocation), evaluate_proof(*args, revocation)))
        elif op[0] == "install":
            _, admin, kind, stride, provenance = op
            previous = history[admin][-1]
            policy = pending.pop(admin, None)
            if policy is None or stride > 1:
                policy = successor(previous, kind, stride)
            history[admin].append(policy)
            told = {
                "known": previous,
                "none": None,
                "not-older": policy,
                "foreign": first_version("elsewhere"),
            }[provenance]
            before = lineages(cache)
            cache.invalidate_policy(policy, told)
            log.append(("install", PolicyId(admin), previous.version, policy.version, before,
                        lineages(cache)))
        elif op[0] == "revoke":
            ca.revoke(credentials[op[1]][op[2]].cred_id, at_time=now)
        else:
            log.append(cache.clear())
        order = entry_order(cache)
        log.append(
            (
                tuple(getattr(stats, name) for name in COUNTERS),
                len(cache),
                # Without a bound the order decides nothing, and across
                # domains it is the one thing an install may change.
                order if n_domains == 1 else sorted(order, key=repr),
            )
        )
    return log


def records(log):
    """The ``(cache's record, evaluate_proof's)`` pairs of a replay."""
    return [step for step in log if isinstance(step, tuple) and len(step) == 2]


def installs(log):
    return [step for step in log if isinstance(step, tuple) and step[0] == "install"]


def fates(log):
    """Per install, per lineage of the outgoing version that nothing shadowed
    at the incoming one: whether the install re-pointed it (``True``) or
    dropped it."""
    out = []
    for _, policy_id, outgoing, incoming, before, after in installs(log):
        for held, goal, version in before:
            if held == policy_id and version == outgoing and (held, goal, incoming) not in before:
                out.append(((held, goal, outgoing, incoming), (held, goal, incoming) in after))
    return out


def agree_on_installs(mine, reference):
    """The two caches decide alike on every lineage both held before an
    install; returns the decisions compared."""
    compared = []
    for ours, theirs in zip(installs(mine), installs(reference)):
        expected = dict(fates([theirs]))
        for lineage, kept in fates([ours]):
            if lineage in expected:
                assert kept == expected[lineage], lineage
                compared.append(kept)
    return compared


def final_counters(log):
    states = [step for step in log if isinstance(step, tuple) and len(step) == 3]
    return dict(zip(COUNTERS, states[-1][0]))


@given(
    seed=st.integers(0, 2**32 - 1),
    length=st.integers(1, 90),
    capacity=st.sampled_from((UNBOUNDED, 3)),
)
@settings(max_examples=250, deadline=None)
def test_lineage_cache_matches_the_version_pinned_reference(seed, length, capacity):
    ops = schedule(seed, length, n_domains=1)
    mine = replay(ProofCache, ops, capacity)
    for got, want in records(mine):
        assert got == want
    agree_on_installs(mine, replay(ReferenceProofCache, ops, capacity))


@given(seed=st.integers(0, 2**32 - 1), length=st.integers(1, 90))
@settings(max_examples=120, deadline=None)
def test_unbounded_multi_domain_cache_matches_the_reference(seed, length):
    ops = schedule(seed, length, n_domains=2)
    mine = replay(ProofCache, ops, UNBOUNDED, 2)
    for got, want in records(mine):
        assert got == want
    agree_on_installs(mine, replay(ReferenceProofCache, ops, UNBOUNDED, 2))


def test_schedule_space_reaches_the_hard_cases():
    """The comparison is only worth something if the hard cases occur: every
    counter moves, the bound evicts, installs both keep and drop lineages both
    caches hold, and templates are shared between the two users."""
    totals = dict.fromkeys(COUNTERS, 0)
    evictions = dropped_by_hook = reference_hits = 0
    compared = []
    for seed in range(40):
        ops = schedule(seed, 90, n_domains=1)
        log, reference = replay(ProofCache, ops, 3), replay(ReferenceProofCache, ops, 3)
        assert all(got == want for got, want in records(log))
        compared += agree_on_installs(log, reference)
        for name, value in final_counters(log).items():
            totals[name] += value
        reference_hits += final_counters(reference)["hits"]
        states = [step for step in log if isinstance(step, tuple) and len(step) == 3]
        for (counters, size, _), (counters_after, size_after, _) in zip(states, states[1:]):
            stored = counters_after[1] > counters[1]  # a miss
            if stored and size == size_after == 3:
                evictions += 1
        dropped_by_hook += sum(step for step in log if isinstance(step, int))
    assert all(totals.values()), totals
    assert evictions and dropped_by_hook
    assert set(compared) == {True, False}  # installs that keep and drop, compared
    assert totals["hits"] > reference_hits  # bob's templates serve eve, and back


def test_pre_delivered_version_shadows_its_retained_twin():
    """The same query cached under v1 and under v2 before v2 installs: the
    v2 template was never diffed and drops, and it takes the v1 template of
    the same pattern with it (the two met on one key in the reference).  A
    neighbour survives."""
    ops = [
        ("evaluate", "app", "current", 0.0, "bob", Operation.READ, ("ledger",), (0,), "local", 0.0),
        ("evaluate", "app", "current", 0.0, "bob", Operation.READ, ("inventory",), (0,), "local", 0.0),
        ("evaluate", "app", "newer", 0.0, "bob", Operation.READ, ("ledger",), (0,), "local", 0.0),
        ("install", "app", "benign", 1, "known"),
        ("evaluate", "app", "current", 0.0, "bob", Operation.READ, ("ledger",), (0,), "local", 0.0),
        ("evaluate", "app", "current", 0.0, "bob", Operation.READ, ("inventory",), (0,), "local", 0.0),
    ]
    log = replay(ProofCache, ops, UNBOUNDED)
    assert all(got == want for got, want in records(log))
    counters, size, _order = log[-1]
    assert dict(zip(COUNTERS, counters)) == {
        "hits": 1, "misses": 4, "bypasses": 0, "invalidations": 1, "retentions": 2,
    }
    assert size == 2
    got, _ = log[-2]
    assert got.policy_version == 2 and got.query_id == "q10"


# -- named hard cases and seeded mutants ------------------------------------------


def hard_cases():
    """Named scenarios: a list of evaluations each, ``(user, items, credentials,
    policy)``, on one cache.  The schedules above never draw them."""
    ca = CertificateAuthority("ca")
    member = first_version("app")
    genuine = ca.issue("alice", Atom("role", ("alice", "member")), 0.0)
    auditor = ca.issue("alice", Atom("role", ("alice", "auditor")), 0.0)
    bob = ca.issue("bob", Atom("role", ("bob", "member")), 0.0)
    named = Policy(
        PolicyId("app"),
        1,
        RuleSet([Rule(Atom("may_read", ("alice", I)), (Atom("item", (I,)),)),
                 Rule(Atom("item", ("inventory",)))]),
    )
    cases = {
        # A forged credential under a cached id and signature.
        "tamper alice": [
            ("alice", ("inventory",), (genuine,), member),
            ("alice", ("inventory",), (genuine.tampered(atom=Atom("role", ("alice", "admin"))),),
             member),
        ],
        "tamper mallory": [
            ("alice", ("inventory",), (genuine,), member),
            ("mallory", ("inventory",),
             (genuine.tampered(atom=Atom("role", ("mallory", "member"))),), member),
        ],
        # The same credentials in the other order.
        "reorder": [
            ("alice", ("inventory",), (genuine, auditor), member),
            ("alice", ("inventory",), (auditor, genuine), member),
        ],
        # Someone else's credential.
        "foreign": [
            ("alice", ("inventory",), (genuine,), member),
            ("bob", ("inventory",), (genuine,), member),
            ("bob", ("inventory",), (bob, genuine), member),
        ],
        # A subject a rule names, and items the rules do and do not name.
        "named subject": [
            ("alice", ("inventory",), (), named),
            ("bob", ("inventory",), (), named),
        ],
        "items": [
            ("bob", ("inventory",), (bob,), member),
            ("bob", ("missing",), (bob,), member),
            ("bob", ("ledger", "inventory"), (bob,), member),
        ],
    }
    return CARegistry([ca]), cases


def mismatches(cache_class=ProofCache):
    """Names of the hard cases and schedules on which some record of a
    ``cache_class`` cache differs from ``evaluate_proof``'s."""
    registry, cases = hard_cases()
    found = set()
    for name, steps in cases.items():
        cache = cache_class()
        for index, (user, items, presented, policy) in enumerate(steps):
            args = (policy, f"q{index}", user, Operation.READ, items, presented, "s1", 5.0 + index,
                    registry)
            if cache.evaluate(*args) != evaluate_proof(*args):
                found.add(name)
    for seed in range(12):
        ops = schedule(seed, 60, n_domains=1)
        if any(got != want for got, want in records(replay(cache_class, ops, UNBOUNDED))):
            found.add("schedules")
    return found


def _numbered_per_term(pattern_of):
    """``pattern_of`` numbering every abstracted occurrence apart, so that a
    repeated constant looks like two."""

    def mutant(user, items, atoms, constants):
        (shape, _), _ = pattern_of(user, items, atoms, constants)
        terms = [user, *items] + [arg for atom in atoms for arg in atom.args]
        abstracted = [term for term in terms if term not in constants]
        numbered = iter(range(len(abstracted)))
        pattern_terms = tuple(term if term in constants else next(numbered) for term in terms)
        return (shape, pattern_terms), tuple(abstracted)

    return mutant


def _trusting(assess):
    """``ProofCache._assess`` trusting a cached verdict on its id and token alone."""

    def mutant(self, credential, token, now, registry, revocation):
        verdict = self._verdicts.get(credential.cred_id)
        if verdict is not None and verdict.token == token and verdict.start <= now < verdict.end:
            return verdict.assessment
        return assess(self, credential, token, now, registry, revocation)

    return mutant


#: name -> (owner, attribute, the mutant made from the faithful attribute).
MUTANTS = {
    "empty constants": (proofcache, "rule_constants", lambda _: lambda rules, closure: frozenset()),
    "trusting verdicts": (ProofCache, "_assess", _trusting),
    "sorted facts": (
        proofcache,
        "pattern_of",
        lambda pattern_of: lambda user, items, atoms, constants: pattern_of(
            user, items, sorted(atoms, key=repr), constants
        ),
    ),
    "numbered per term": (proofcache, "pattern_of", _numbered_per_term),
}
CAUGHT_BY = {
    "empty constants": {"items", "named subject", "schedules"},
    "trusting verdicts": {"tamper alice", "tamper mallory"},
    "sorted facts": {"reorder"},
    # Own credentials repeat the user consistently; someone else's do not.
    "numbered per term": {"foreign"},
}


def test_the_record_harness_passes_the_cache_and_fails_the_reference():
    assert mismatches() == set()
    # The version-pinned cache keys a record by user and credential ids: it
    # answers a forgery with the genuine credential's record and a reordered
    # set with the first order's ids, assessments and sources.
    assert {"tamper alice", "reorder"} <= mismatches(ReferenceProofCache)


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_the_record_harness_catches_four_seeded_mutants(monkeypatch, mutant):
    owner, name, make = MUTANTS[mutant]
    monkeypatch.setattr(owner, name, make(getattr(owner, name)))
    assert CAUGHT_BY[mutant] <= mismatches()


class CountingItem(str):
    """An item constant that counts how often it is hashed."""

    hashed = 0

    def __hash__(self):
        CountingItem.hashed += 1
        return str.__hash__(self)


def test_install_cost_is_linear_in_installs_not_in_entries():
    """An install counts the templates it keeps; it must not visit them.

    Re-keying every kept template would hash its pattern — and the item in
    it — once per install (installs x templates = 400 000 here); the budget
    is a bound on installs alone.
    """
    entries, installs_ = 2000, 200
    items = [CountingItem(f"item{index}") for index in range(entries)]
    base = first_version("app")
    rules = RuleSet(list(base.rules.rules) + [Rule(Atom("item", (item,))) for item in items])
    registry = CARegistry([CertificateAuthority("ca")])
    stats = ProofCacheCounters()
    cache = ProofCache(stats=stats, server="s1")
    store = PolicyStore([Policy(base.policy_id, 1, rules)])
    store.subscribe(cache.invalidate_policy)
    pid = PolicyId("app")

    def evaluate(index):
        return cache.evaluate(
            store.current(pid), "q", "bob", Operation.READ, [items[index]], [],
            "s1", 1.0, registry,
        )

    for index in range(entries):
        evaluate(index)
    assert len(cache) == entries
    # The first diff seeds the domain's held rules from every rule once.
    assert store.apply(successor(store.current(pid), "benign", 1))
    CountingItem.hashed = 0
    for _ in range(installs_):
        assert store.apply(successor(store.current(pid), "benign", 1))
    assert CountingItem.hashed <= 10 * installs_
    assert (stats.retentions, stats.invalidations) == ((installs_ + 1) * entries, 0)
    assert evaluate(0).policy_version == 2 + installs_
    assert stats.hits == 1
