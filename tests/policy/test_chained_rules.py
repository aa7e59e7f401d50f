"""A chained rule set is the flat rule set of the same rules, observably.

:meth:`RuleSet.extended` makes a version that holds its parent and only the
rules it appends; rewrites stay flat ``RuleSet(rules)`` values.  These tests
build random chains of appends, branches and rewrites, prove against random
versions in between (so indexes get built at every depth of a chain, before
and after their descendants exist), and check every version against the
flat ``RuleSet`` of its rules:

* ``rules``, ``len``, ``==`` and ``hash`` agree;
* ``_rule_candidates`` gives the same rules in the same order, for ground
  and for variable first arguments;
* ``prove`` gives the flat set's witness on ground goals, and that witness
  equals the naive reference's (``tests/policy/rules_oracle.py``);
* ``changed_predicates`` — pure, and through one long-lived ``HeldRules`` —
  equals the parent's diff (``_oracle_changed_predicates``).

Proofs are asked for ground goals only, as in
``tests/property/test_engine_equivalence.py``: ``safe_rules`` bodies use
only head variables and constants, so every subgoal of a ground goal is
ground, tabled and cycle-checked.  An open goal against random recursive
rules is not bounded: two rules like ``q(Y) :- q(Y), r(a)`` branch twice at
each of ``MAX_DEPTH`` levels, for flat and chained sets alike.  What a chain
could change about an open goal's search is its candidate lists, and those
are compared for open first arguments too.

A deterministic case walks a 5 000-version chain, deeper than the
interpreter's recursion limit.
"""

from __future__ import annotations

import copy
import pickle
import sys

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.policy.analyze import HeldRules, changed_predicates
from repro.policy.rules import Atom, FactBase, Rule, RuleSet, Variable
from tests.policy.rules_oracle import naive_view
from tests.policy.test_analyze import _oracle_changed_predicates
from tests.property.test_engine_equivalence import (
    CONSTANTS,
    PREDICATES,
    ground_atoms,
    safe_rules,
)

#: One ``may_read``-style guard per version keeps proofs several levels deep.
OPEN = Variable("O")


def probe_goals():
    """Ground and variable first arguments for every functor the rules use."""
    goals = []
    for predicate in PREDICATES:
        goals.append(Atom(predicate, (OPEN,)))
        goals.append(Atom(predicate, (OPEN, CONSTANTS[0])))
        for constant in CONSTANTS:
            goals.append(Atom(predicate, (constant,)))
            goals.append(Atom(predicate, (constant, CONSTANTS[1])))
    return goals


GOALS = probe_goals()

steps = st.one_of(
    st.tuples(st.just("append"), st.lists(safe_rules(), min_size=0, max_size=3)),
    st.tuples(st.just("branch"), st.lists(safe_rules(), min_size=1, max_size=2)),
    st.tuples(st.just("rewrite"), st.lists(safe_rules(), min_size=0, max_size=4)),
    st.tuples(st.just("prove"), st.just(())),
)


@st.composite
def chains(draw):
    """Versions made by appends, branches off older versions, and flat rewrites."""
    versions = [RuleSet(draw(st.lists(safe_rules(), min_size=0, max_size=4)))]
    facts = FactBase()
    for index, atom in enumerate(draw(st.lists(ground_atoms(), min_size=1, max_size=6))):
        facts.add(atom, source=f"cred-{index}")
    for constant in CONSTANTS[:2]:
        facts.add(Atom("b", (constant,)), source=f"binder-{constant}")
    for kind, rules in draw(st.lists(steps, min_size=1, max_size=14)):
        if kind == "append":
            versions.append(versions[-1].extended(rules))
        elif kind == "branch":
            older = versions[draw(st.integers(0, len(versions) - 1))]
            versions.append(older.extended(rules))
        elif kind == "rewrite":
            kept = [rule for rule in versions[-1].rules if draw(st.booleans())]
            versions.append(RuleSet(kept + rules))
        else:  # index some version now, before its descendants are made
            versions[draw(st.integers(0, len(versions) - 1))].prove(GOALS[2], facts)
    return versions, facts


def flat(rule_set: RuleSet) -> RuleSet:
    return RuleSet(list(rule_set.rules))


def candidates(rule_set: RuleSet, goal: Atom):
    return [(indexed.position, indexed.rule) for indexed in rule_set._rule_candidates(goal)]


@settings(max_examples=80, deadline=None)
@given(chains())
def test_every_version_is_its_flat_rule_set(chain):
    versions, facts = chain
    for version in versions:
        reference = flat(version)
        assert version.rules == reference.rules and len(version) == len(reference)
        assert list(version) == list(reference.rules)
        assert version == reference and reference == version
        assert hash(version) == hash(reference)
        for goal in GOALS:
            assert candidates(version, goal) == candidates(reference, goal), goal
            if goal.is_ground:
                proof = version.prove(goal, facts)
                assert proof == reference.prove(goal, facts), goal
                assert proof == naive_view(reference).prove(goal, facts), goal


@settings(max_examples=80, deadline=None)
@given(chains())
def test_changed_predicates_on_chains_agrees_with_the_parents(chain):
    versions, _ = chain
    holder = HeldRules()
    pairs = list(zip(versions, versions[1:]))  # an installer's order: the holder's best case
    pairs += [(old, new) for old in versions for new in versions]  # every pair, both ways
    for old, new in pairs:
        expected = _oracle_changed_predicates(flat(old), flat(new))
        assert changed_predicates(old, new) == expected
        assert changed_predicates(old, new, holder) == expected


def test_unequal_rule_sets_of_one_chain_compare_unequal():
    rule = Rule(Atom("p", ("a",)))
    base = RuleSet([rule])
    assert base.extended([rule]) != base  # equal prefix, longer
    assert base.extended([rule]) != RuleSet([rule, Rule(Atom("p", ("b",)))])
    assert base.extended([]) == base and hash(base.extended([])) == hash(base)
    assert base != (rule,) and base.extended([]) != [rule]


def test_a_chain_deeper_than_the_recursion_limit_proves_compares_and_hashes():
    depth = 5000
    assert depth > sys.getrecursionlimit()
    user, item = Variable("U"), Variable("I")
    root = RuleSet([
        Rule(Atom("may_read", (user, item)), (Atom("role", (user, "member")), Atom("item", (item,)))),
        Rule(Atom("item", ("x1",))),
    ])
    versions = [root]
    for step in range(depth):
        appended = Atom(f"revision_{step}", ()) if step % 7 else Atom("item", (f"x{step}",))
        versions.append(versions[-1].extended([Rule(appended)]))
    deepest = versions[-1]
    facts = FactBase()
    facts.add(Atom("role", ("alice", "member")), source="c1")
    # Index a middle version first, then the deepest one on top of it.
    assert versions[depth // 2].prove(Atom("may_read", ("alice", "x1")), facts) is not None
    assert deepest.prove(Atom("may_read", ("alice", f"x{depth - 1 - (depth - 1) % 7}")), facts)
    assert deepest.prove(Atom("may_read", ("alice", "x3")), facts) is None
    assert deepest.prove(Atom("item", (Variable("I"),)), facts) is not None
    reference = flat(deepest)
    assert len(deepest) == depth + 2 and deepest == reference and hash(deepest) == hash(reference)
    assert deepest != versions[-2] and hash(deepest) != hash(versions[-2])
    holder = HeldRules()
    assert changed_predicates(root, deepest, holder) == _oracle_changed_predicates(root, reference)
    assert changed_predicates(deepest, root, holder) == _oracle_changed_predicates(reference, root)
    for clone in (copy.deepcopy(deepest), pickle.loads(pickle.dumps(deepest))):
        assert clone == deepest and hash(clone) == hash(deepest)
