"""Unit tests for the indexed, tabled engine internals.

``tests/policy/test_rules.py`` pins the prover's *semantics*; this module
pins the *mechanics* the speedup rests on — index-narrowed candidate
selection, head prefiltering before renaming, per-prove tabling, the
set-based cycle guard — via the :class:`EngineCounters` accounting and a
few adversarial rule shapes (deep chains, cycles, depth-limit edges).
"""

import pytest

from repro.policy.rules import (
    MAX_DEPTH,
    Atom,
    EngineCounters,
    FactBase,
    ProofNode,
    Rule,
    RuleSet,
    Variable,
)
from tests.policy.rules_oracle import NaiveRuleSet, naive_view

X, Y = Variable("X"), Variable("Y")


def facts_from(*atoms):
    base = FactBase()
    for index, atom in enumerate(atoms):
        base.add(atom, source=f"cred-{index}")
    return base


def chain_rules(length, predicate="p"):
    """``p0(X) :- p1(X).  …  p{n-1}(X) :- p{n}(X).`` — one fact at the end."""
    rules = [
        Rule(Atom(f"{predicate}{i}", (X,)), (Atom(f"{predicate}{i + 1}", (X,)),))
        for i in range(length)
    ]
    return RuleSet(rules), Atom(f"{predicate}{length}", ("a",))


class TestFactIndexing:
    def test_candidates_for_narrows_by_first_arg(self):
        base = facts_from(
            Atom("item", ("a",)), Atom("item", ("b",)), Atom("item", ("c",))
        )
        narrowed = base.candidates_for(Atom("item", ("b",)))
        assert [fact for fact, _ in narrowed] == [Atom("item", ("b",))]

    def test_candidates_for_with_variable_first_arg_scans_predicate(self):
        base = facts_from(Atom("item", ("a",)), Atom("item", ("b",)))
        assert len(base.candidates_for(Atom("item", (X,)))) == 2

    def test_exact_match_keeps_first_source(self):
        base = FactBase()
        base.add(Atom("p", ("a",)), source="first")
        base.add(Atom("p", ("a",)), source="second")
        assert base.match_ground(Atom("p", ("a",))) == "first"

    def test_counters_show_no_scan_of_unrelated_facts(self):
        # 50 facts under one predicate; a ground goal must check exactly one.
        base = facts_from(*[Atom("item", (f"k{i}",)) for i in range(50)])
        rules = RuleSet([])
        counters = EngineCounters()
        assert rules.prove(Atom("item", ("k7",)), base, counters) is not None
        assert counters.facts_scanned <= 1


class TestRulePrefilter:
    def test_mismatched_ground_head_is_rejected_before_renaming(self):
        # Both rules share the functor; only one can apply to goal("a", …).
        rules = RuleSet(
            [
                Rule(Atom("may", ("a", X)), (Atom("q", (X,)),)),
                Rule(Atom("may", ("b", X)), (Atom("q", (X,)),)),
            ]
        )
        counters = EngineCounters()
        rules.prove(Atom("may", ("a", "k")), facts_from(Atom("q", ("k",))), counters)
        assert counters.rules_tried == 1

    def test_variable_free_rules_skip_renaming(self):
        rules = RuleSet([Rule(Atom("p", ("a",)), (Atom("q", ("b",)),))])
        counters = EngineCounters()
        assert rules.prove(Atom("p", ("a",)), facts_from(Atom("q", ("b",))), counters)
        assert counters.renames_avoided == 1


class TestTabling:
    def test_shared_subgoal_is_proved_once(self):
        # Both body atoms reduce to the same ground subgoal s("a"), which in
        # turn needs a one-rule derivation; the second occurrence must come
        # from the table.
        rules = RuleSet(
            [
                Rule(Atom("top", (X,)), (Atom("mid", (X,)), Atom("mid", (X,)))),
                Rule(Atom("mid", (X,)), (Atom("s", (X,)),)),
                Rule(Atom("s", (X,)), (Atom("base", (X,)),)),
            ]
        )
        counters = EngineCounters()
        proof = rules.prove(Atom("top", ("a",)), facts_from(Atom("base", ("a",))), counters)
        assert proof is not None
        assert counters.table_hits >= 1

    def test_failed_subgoal_is_not_retried(self):
        # gone("a") is unprovable and needed by both alternatives for the
        # top goal; the second alternative must answer it from the table.
        rules = RuleSet(
            [
                Rule(Atom("top", (X,)), (Atom("gone", (X,)),)),
                Rule(Atom("top", (X,)), (Atom("has", (X,)), Atom("gone", (X,)))),
            ]
        )
        counters = EngineCounters()
        facts = facts_from(Atom("has", ("a",)))
        assert rules.prove(Atom("top", ("a",)), facts, counters) is None
        assert counters.table_hits >= 1

    def test_tabled_witness_matches_reference(self):
        rules = [
            Rule(Atom("top", (X,)), (Atom("mid", (X,)), Atom("mid", (X,)))),
            Rule(Atom("mid", (X,)), (Atom("base", (X,)),)),
        ]
        facts = facts_from(Atom("base", ("a",)))
        goal = Atom("top", ("a",))
        assert RuleSet(rules).prove(goal, facts) == NaiveRuleSet(rules).prove(goal, facts)


class TestCycleGuardAndDepth:
    def test_self_recursive_rule_terminates(self):
        rules = RuleSet([Rule(Atom("p", (X,)), (Atom("p", (X,)),))])
        assert rules.prove(Atom("p", ("a",)), FactBase()) is None

    def test_mutual_recursion_terminates(self):
        rules = RuleSet(
            [
                Rule(Atom("p", (X,)), (Atom("q", (X,)),)),
                Rule(Atom("q", (X,)), (Atom("p", (X,)),)),
            ]
        )
        assert rules.prove(Atom("p", ("a",)), FactBase()) is None

    def test_deep_recursive_chain_is_provable(self):
        # Regression for the O(depth) tuple-scan cycle guard: a chain just
        # under the depth limit must prove (and do so in linear time).
        depth = MAX_DEPTH - 4
        rules, last = chain_rules(depth)
        facts = facts_from(last)
        proof = rules.prove(Atom("p0", ("a",)), facts)
        assert proof is not None
        # The witness is the full chain: depth rule nodes over one fact leaf.
        node, hops = proof, 0
        while node.justification == "rule":
            (node,) = node.children
            hops += 1
        assert hops == depth
        assert node.justification == "fact"

    def test_depth_limit_matches_reference(self):
        for depth in (MAX_DEPTH, MAX_DEPTH + 1, MAX_DEPTH + 8):
            rules, last = chain_rules(depth)
            facts = facts_from(last)
            goal = Atom("p0", ("a",))
            indexed = rules.prove(goal, facts)
            naive = naive_view(rules).prove(goal, facts)
            assert (indexed is None) == (naive is None), f"diverged at depth {depth}"

    def test_cycle_guard_does_not_leak_across_siblings(self):
        # q("a") appears once as a guard frame and once as a sibling goal;
        # an over-shared (mutable) stack would wrongly prune the sibling.
        rules = RuleSet(
            [
                Rule(Atom("top", (X,)), (Atom("p", (X,)), Atom("q", (X,)))),
                Rule(Atom("p", (X,)), (Atom("q", (X,)),)),
                Rule(Atom("q", (X,)), (Atom("base", (X,)),)),
            ]
        )
        proof = rules.prove(Atom("top", ("a",)), facts_from(Atom("base", ("a",))))
        assert proof is not None


class TestCounters:
    def test_merge_and_snapshot(self):
        first, second = EngineCounters(), EngineCounters()
        first.proofs, second.proofs = 2, 3
        second.table_hits = 5
        first.merge(second)
        snap = first.snapshot()
        assert snap["proofs"] == 5
        assert snap["table_hits"] == 5

    def test_prove_without_counters_is_fine(self):
        rules = RuleSet([Rule(Atom("p", ("a",)))])
        assert rules.prove(Atom("p", ("a",)), FactBase()) is not None

    def test_naive_reference_accepts_and_ignores_counters(self):
        counters = EngineCounters()
        rules = NaiveRuleSet([Rule(Atom("p", ("a",)))])
        assert rules.prove(Atom("p", ("a",)), FactBase(), counters) is not None
        assert counters.proofs == 0
