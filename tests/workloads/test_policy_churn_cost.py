"""A policy version is paid for when it is used, not when it is published.

Under policy churn (the paper's §VI-B regime: updates arrive faster than
transactions finish) most published versions are never proved against — a
server skips straight from the version it holds to the newest one it
receives.  These tests pin what a version may cost before anything asks it
a question:

* **Counting** (class-level monkeypatches on a real 6-server cluster under
  :class:`PolicyUpdateProcess`): ``_IndexedRule`` objects are built only for
  versions some server proved against, and a server hashes the rules an
  install appends — not every rule of every version, and twice the versions
  cost twice the hashing.
* **Memory** (``tracemalloc``): what 300 further publications retain, and
  that 2 000 publications retain bytes linear in the versions.
* **Laziness is invisible**: nothing observable depends on whether a rule
  set has been indexed yet.

The index-counting test fails at PR 16's parent (``5648795``), where
``RuleSet.__init__`` indexed every rule of every version; the hash-counting
tests and the memory test fail at PR 21's parent (``350a8c4``), where every
version kept a ``frozenset`` of all its rules for as long as it lived; the
linear-retention test fails at ``4ed174d``, where every version copied its
predecessor's rule tuple.
"""

from __future__ import annotations

import copy
import gc
import pickle
import tracemalloc

import pytest

from repro.policy import rules as rules_module
from repro.policy.admin import PolicyAdministrator
from repro.policy.rules import Atom, EngineCounters, FactBase, Rule, RuleSet, Variable
from repro.transactions.transaction import Query, Transaction
from repro.workloads.testbed import MEMBER_ROLE, build_cluster, member_policy_rules
from repro.workloads.updates import PolicyUpdateProcess, benign_successor

SERVERS = 6
INTERVAL = 25.0  # wide enough that installs arrive in order and no cache goes cold


class Churn:
    """A 6-server cluster, every proof cache warm, under benign policy churn."""

    def __init__(self) -> None:
        self.cluster = build_cluster(n_servers=SERVERS, items_per_server=4, seed=5, trace=False)
        self._probes = 0
        self.probe()  # warms the proof cache of every server
        self.updates = PolicyUpdateProcess(
            self.cluster, "app", interval=INTERVAL, count=400, mode="benign"
        )
        self.updates.start()

    def probe(self) -> None:
        """One transaction by a user nobody has seen: a cache miss on every server."""
        self._probes += 1
        user = f"user{self._probes}"
        credential = self.cluster.issue_role_credential(user, issued_at=self.cluster.env.now)
        queries = [Query.read(f"q{i}", [f"s{i}/x1"]) for i in range(1, SERVERS + 1)]
        txn = Transaction(f"t-{user}", user, queries, [credential])
        assert self.cluster.run_transaction(txn, "deferred").committed

    def publish_until(self, count: int) -> None:
        while len(self.updates.published) < count:
            self.cluster.run(until=self.cluster.env.now + INTERVAL)

    def run(self, start: int = 50, until: int = 400) -> None:
        """Publish up to ``until`` versions, probing after every 50th."""
        for target in range(start, until + 1, 50):
            self.publish_until(target)
            self.probe()


@pytest.fixture
def counted(monkeypatch):
    """Class-level call counts: index entries built, rules hashed, versions proved."""
    counts = {"indexed": 0, "hashed": 0, "proved": {}}
    indexed_init = rules_module._IndexedRule.__init__
    rule_hash = Rule.__hash__
    prove = RuleSet.prove

    def counting_init(self, position, rule):
        counts["indexed"] += 1
        indexed_init(self, position, rule)

    def counting_hash(self):
        counts["hashed"] += 1
        return rule_hash(self)

    def recording_prove(self, goal, facts, counters=None):
        counts["proved"][id(self)] = self  # holds the rule set: ids stay unique
        return prove(self, goal, facts, counters)

    monkeypatch.setattr(rules_module._IndexedRule, "__init__", counting_init)
    monkeypatch.setattr(Rule, "__hash__", counting_hash)
    monkeypatch.setattr(RuleSet, "prove", recording_prove)
    return counts


def test_only_versions_proved_against_are_indexed(counted):
    churn = Churn()
    churn.run()
    published = churn.updates.published
    assert len(published) >= 400
    proved = counted["proved"].values()
    assert 2 <= len(proved) <= 0.1 * len(published)  # one version in ten, or fewer
    budget = 1.1 * sum(len(rule_set) for rule_set in proved)
    # The parent builds one entry per rule of *every* version: 90 626 here,
    # against 4 382 rules in the 19 versions proved against.
    assert 0 < counted["indexed"] <= budget
    assert counted["indexed"] < 0.1 * sum(len(policy.rules) for policy in published)


def _hashed_at(counted, *marks: int):
    """``Rule.__hash__`` calls so far when the run has published each of ``marks`` versions."""
    churn = Churn()
    base = len(churn.cluster.admin("app").current.rules)
    out, start = [], 50
    for mark in marks:
        churn.run(start=start, until=mark)
        start = mark + 50
        # The caches stayed warm, so (nearly) every server install was diffed:
        # each server holds one template (every probe, a new user, shares its
        # shape), kept by every install but a delivery overtaken in flight.
        assert churn.cluster.metrics.proof_cache.retentions >= 0.85 * mark * SERVERS
        out.append(counted["hashed"])
    return base, out


def test_a_publication_hashes_its_rules_once_between_all_servers(counted):
    base, (hashed,) = _hashed_at(counted, 400)
    # Each server hashes the rules it starts from once, then what each install
    # appends: one marker rule, looked up and added.  Linear in the versions —
    # PR 21's parent hashed every rule of every version once (90 626 here), a
    # budget of "1.1 x the rules published" grew with the square and let it.
    assert 0 < hashed <= 3 * 400 * SERVERS + SERVERS * base


def test_twice_the_versions_cost_twice_the_hashing(counted):
    _, (at_200, at_400) = _hashed_at(counted, 200, 400)
    assert 0 < at_400 <= 2.2 * at_200  # PR 21's parent: 3.6 x


#: ``tracemalloc`` growth between publications 100 and 400 of the run below at
#: PR 21's parent (``350a8c4``), CPython 3.11.7.  Measured once, with
#:
#:     git archive 350a8c4 | tar -x -C /tmp/parent
#:     PYTHONPATH=/tmp/parent/src python -c "
#:     import sys; sys.path.insert(0, '.')
#:     from tests.workloads.test_policy_churn_cost import retained_growth
#:     print(retained_growth())"
#:
#: run from this repo's root (this test module, the parent's ``src/``); the same
#: command on this tree prints 2 400 263 (0.30 x; PR 16's parent: 33 488 127).
PARENT_RETAINED_GROWTH_BYTES = 7_987_799


def retained_growth() -> int:
    """Bytes still allocated that were allocated between publications 100 and 400."""
    churn = Churn()
    gc.collect()
    tracemalloc.start()
    try:
        churn.run(until=100)
        gc.collect()
        at_100 = tracemalloc.get_traced_memory()[0]
        churn.run(start=150)
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - at_100
    finally:
        tracemalloc.stop()


def test_retained_memory_per_publication():
    """300 more versions retain at most 0.4 x what they retained at the parent.

    Every version stays reachable (the administrator's history, the master's
    version log), so this is what a version *is*: at the parent its tuple
    and — once some server had diffed it — one frozenset of its rules; now
    the tuple.
    """
    growth = retained_growth()
    assert 0 < growth <= 0.4 * PARENT_RETAINED_GROWTH_BYTES


def retained_by_publications(marks=(1000, 2000)):
    """Bytes still allocated after each of ``marks`` ``benign_successor`` publications.

    The testbed member policy (12 items), one administrator, no servers; every
    10th version is proved against, so a tenth of them build head indexes.
    """
    items = [f"s{i}/x{j}" for i in range(1, 4) for j in range(1, 5)]
    admin = PolicyAdministrator("app", member_policy_rules(items))
    facts = FactBase()
    facts.add(Atom("role", ("alice", MEMBER_ROLE)), source="c1")
    out = []
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        for step in range(1, max(marks) + 1):
            policy = admin.publish(benign_successor(admin.current))
            if step % 10 == 0:
                goal = Atom("may_read", ("alice", items[step % len(items)]))
                assert policy.rules.prove(goal, facts) is not None
            if step in marks:
                gc.collect()
                out.append(tracemalloc.get_traced_memory()[0] - start)
    finally:
        tracemalloc.stop()
    return out


def test_a_publication_retains_its_tail_not_its_rules():
    """2 000 versions retain bytes linear in the versions, not versions x rules.

    Measured with ``retained_by_publications()`` on CPython 3.11.7: 841 780
    bytes after 1 000 versions and 1 696 036 after 2 000 (848 per version,
    x2.01), where every version copied its predecessor's rule tuple and each
    proved one indexed all its rules: 19 417 856 and 75 971 696 (37 986 per
    version, x3.91).  The bounds are 1 500 bytes per version (a version is its
    ``Policy``, its ``RuleSet``, a one-rule tail and the marker rule) and x2.2
    for twice the versions.
    """
    at_1000, at_2000 = retained_by_publications()
    assert 0 < at_2000 <= 2.2 * at_1000
    assert at_2000 <= 1500 * 2000


# -- laziness is invisible ----------------------------------------------------------


def _recursive_rules() -> RuleSet:
    """``reach`` over a 3-deep ``edge`` chain, plus ground-first-argument rules."""
    x, y, z = Variable("X"), Variable("Y"), Variable("Z")
    return RuleSet([
        Rule(Atom("reach", (x, y)), (Atom("edge", (x, y)),)),
        Rule(Atom("reach", (x, z)), (Atom("edge", (x, y)), Atom("reach", (y, z)))),
        Rule(Atom("edge", ("a", "b"))),
        Rule(Atom("edge", ("b", "c"))),
        Rule(Atom("edge", ("c", "d"))),
        Rule(Atom("may_read", (x, "vault")), (Atom("badge", (x,)), Atom("reach", ("a", "d")))),
    ])


def _facts(*atoms: Atom) -> FactBase:
    facts = FactBase()
    for index, atom in enumerate(atoms):
        facts.add(atom, source=f"cred{index}")
    return facts


CASES = [
    (
        lambda: member_policy_rules([f"s{i}/x{j}" for i in range(1, 4) for j in range(1, 5)]),
        _facts(Atom("role", ("alice", "member"))),
        [
            Atom("may_read", ("alice", "s2/x3")),
            Atom("may_write", ("alice", "s1/x1")),
            Atom("may_read", ("bob", "s2/x3")),
            Atom("may_read", ("alice", "nowhere")),
            Atom("item", (Variable("I"),)),
        ],
    ),
    (
        _recursive_rules,
        _facts(Atom("badge", ("alice",))),
        [
            Atom("reach", ("a", "d")),
            Atom("reach", ("d", "a")),
            Atom("may_read", ("alice", "vault")),
            Atom("may_read", ("bob", "vault")),
            Atom("reach", (Variable("From"), "d")),
            Atom("edge", (Variable("From"), Variable("To"))),
        ],
    ),
]


def _answers(rule_set: RuleSet, facts: FactBase, goals):
    out = []
    for goal in goals:
        counters = EngineCounters()
        out.append((rule_set.prove(goal, facts, counters), counters.snapshot()))
    return out


@pytest.mark.parametrize("build, facts, goals", CASES, ids=["member", "recursive"])
def test_nothing_depends_on_whether_a_rule_set_has_been_indexed(build, facts, goals):
    fresh, used = build(), build()
    expected = _answers(used, facts, goals)
    assert any(proof is not None for proof, _ in expected)
    assert any(proof is None for proof, _ in expected)
    variants = {
        "never proved": fresh,
        "proved": used,
        "deepcopy of never proved": copy.deepcopy(build()),
        "deepcopy of proved": copy.deepcopy(used),
        "pickle of never proved": pickle.loads(pickle.dumps(build())),
        "pickle of proved": pickle.loads(pickle.dumps(used)),
    }
    for label, variant in variants.items():
        assert variant == used and used == variant, label
        assert hash(variant) == hash(used), label
        assert len(variant) == len(used) and variant.rules == used.rules, label
        assert _answers(variant, facts, goals) == expected, label
        # ... and again, now that every variant has been indexed.
        assert _answers(variant, facts, goals) == expected, label


@pytest.mark.parametrize("build, facts, goals", CASES, ids=["member", "recursive"])
def test_a_variable_first_argument_may_be_the_very_first_query(build, facts, goals):
    open_goal = goals[-1]
    assert isinstance(open_goal.args[0], Variable)
    warmed = build()
    _answers(warmed, facts, goals[:-1])
    first_ever = build().prove(open_goal, facts)
    assert first_ever is not None
    assert first_ever == warmed.prove(open_goal, facts)
