"""The lineage proof cache against the version-pinned reference.

Hits and misses decide how much host work a run does, the counters are
exported, and the LRU victim decides later hits, so
:class:`~repro.policy.proofcache.ProofCache` must reproduce
:class:`tests.policy.proofcache_oracle.ProofCache` exactly — every proof
field, every counter, every entry and its place in the eviction order —
and not merely stay sound.  The one licensed difference: an install no
longer refreshes the entries it keeps, which only a bounded cache holding
several policy domains can observe.
"""

import random

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.metrics.counters import ProofCacheCounters
from repro.policy.credentials import CARegistry, CertificateAuthority
from repro.policy.policy import Operation, Policy, PolicyId
from repro.policy.proofcache import ProofCache
from repro.policy.proofs import LocalRevocationChecker, PrefetchedStatuses
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
    """``policy`` ``stride`` versions later, rewritten as ``kind`` says."""
    rules = list(policy.rules.rules)
    version = policy.version + stride
    if kind == "benign":
        rules.append(Rule(Atom(f"revision_{version}", ())))
    elif kind == "item":
        rules.append(Rule(Atom("item", (f"extra_{version}",))))
    else:  # toggle a clearance condition on one guard
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
    """Live entries, eviction victim first, as version-pinned keys."""
    rows = []
    for key in cache._entries:
        if isinstance(key[0], PolicyId):
            head = key[:2]
        else:
            head = (key[0].policy_id, key[0].version)
        token = key[-1]
        if token[0] == "local":  # ("local", id(registry)): one registry per replay
            token = "local"
        rows.append(head + key[-5:-1] + (token,))
    return rows


def replay(cache_class, ops, capacity, n_domains=1):
    """Everything observable about one schedule, after every step."""
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
            log.append(
                cache.evaluate(
                    policy, f"q{len(log)}", user, operation, items, presented,
                    "s1", now, registry, revocation,
                )
            )
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
            log.append(cache.invalidate_policy(policy, told))
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


@given(
    seed=st.integers(0, 2**32 - 1),
    length=st.integers(1, 90),
    capacity=st.sampled_from((None, 3)),
)
@settings(max_examples=250, deadline=None)
def test_lineage_cache_matches_the_version_pinned_reference(seed, length, capacity):
    ops = schedule(seed, length, n_domains=1)
    assert replay(ProofCache, ops, capacity) == replay(ReferenceProofCache, ops, capacity)


@given(seed=st.integers(0, 2**32 - 1), length=st.integers(1, 90))
@settings(max_examples=120, deadline=None)
def test_unbounded_multi_domain_cache_matches_the_reference(seed, length):
    ops = schedule(seed, length, n_domains=2)
    assert replay(ProofCache, ops, None, 2) == replay(ReferenceProofCache, ops, None, 2)


def test_schedule_space_reaches_the_hard_cases():
    """The comparison is only worth something if the hard cases occur."""
    totals = dict.fromkeys(COUNTERS, 0)
    evictions = dropped_by_hook = 0
    for seed in range(40):
        ops = schedule(seed, 90, n_domains=1)
        log = replay(ProofCache, ops, 3)
        assert log == replay(ReferenceProofCache, ops, 3)
        for name, value in zip(COUNTERS, log[-1][0]):
            totals[name] += value
        states = [entry for entry in log if isinstance(entry, tuple)]
        for (counters, size, order), (counters_after, size_after, order_after) in zip(
            states, states[1:]
        ):
            stored = counters_after[1] > counters[1]  # a miss
            if stored and size == size_after == 3 and set(order) != set(order_after):
                evictions += 1
        dropped_by_hook += sum(entry for entry in log if isinstance(entry, int))
    assert all(totals.values()), totals
    assert evictions and dropped_by_hook


def test_pre_delivered_version_shadows_its_retained_twin():
    """The same query cached under v1 and under v2 before v2 installs: the
    v2 entry was never diffed and drops, and it takes the v1 entry with it
    (the two met on one key in the reference).  A neighbour survives."""
    ops = [
        ("evaluate", "app", "current", 0.0, "bob", Operation.READ, ("ledger",), (0,), "local", 0.0),
        ("evaluate", "app", "current", 0.0, "bob", Operation.READ, ("inventory",), (0,), "local", 0.0),
        ("evaluate", "app", "newer", 0.0, "bob", Operation.READ, ("ledger",), (0,), "local", 0.0),
        ("install", "app", "benign", 1, "known"),
        ("evaluate", "app", "current", 0.0, "bob", Operation.READ, ("ledger",), (0,), "local", 0.0),
        ("evaluate", "app", "current", 0.0, "bob", Operation.READ, ("inventory",), (0,), "local", 0.0),
    ]
    log = replay(ProofCache, ops, None)
    assert log == replay(ReferenceProofCache, ops, None)
    counters, size, _order = log[-1]
    assert dict(zip(COUNTERS, counters)) == {
        "hits": 1, "misses": 4, "bypasses": 0, "invalidations": 1, "retentions": 2,
    }
    assert size == 2
    assert log[-2].policy_version == 2 and log[-2].query_id == "q10"


class CountingToken:
    """A checker identity that counts how often a key holding it is hashed."""

    hashed = 0

    def __hash__(self):
        CountingToken.hashed += 1
        return 7


def test_install_cost_is_linear_in_installs_not_in_entries():
    """An install counts what it keeps; it must not visit it.

    Re-keying hashes every kept key seven times per install (installs x
    entries x 7 = 2.8 million here); the budget is a bound on installs
    alone.
    """
    entries, installs = 2000, 200
    token = CountingToken()

    class Checker(LocalRevocationChecker):
        def cache_token(self):
            return token

    registry = CARegistry([CertificateAuthority("ca")])
    stats = ProofCacheCounters()
    cache = ProofCache(stats=stats, server="s1")
    store = PolicyStore([first_version("app")])
    store.subscribe(cache.invalidate_policy)
    pid = PolicyId("app")

    def evaluate(index):
        return cache.evaluate(
            store.current(pid), "q", f"user{index}", Operation.READ, ["ledger"], [],
            "s1", 1.0, registry, Checker(registry),
        )

    for index in range(entries):
        evaluate(index)
    assert len(cache) == entries
    CountingToken.hashed = 0
    for _ in range(installs):
        assert store.apply(successor(store.current(pid), "benign", 1))
    assert CountingToken.hashed <= 10 * installs
    assert (stats.retentions, stats.invalidations) == (installs * entries, 0)
    assert evaluate(0).policy_version == 1 + installs
    assert stats.hits == 1
