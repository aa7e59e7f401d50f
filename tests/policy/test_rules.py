"""Unit tests for the inference-rule engine."""

import pytest

from repro.errors import PolicyError
from repro.policy.rules import (
    Atom,
    FactBase,
    ProofNode,
    Rule,
    RuleSet,
    Variable,
    unify,
)

X, Y, R = Variable("X"), Variable("Y"), Variable("R")


def facts_from(*atoms):
    base = FactBase()
    for index, atom in enumerate(atoms):
        base.add(atom, source=f"cred-{index}")
    return base


class TestAtoms:
    def test_ground_detection(self):
        assert Atom("p", ("a", "b")).is_ground
        assert not Atom("p", (X, "b")).is_ground

    def test_empty_predicate_rejected(self):
        with pytest.raises(PolicyError):
            Atom("", ("a",))

    def test_substitute_replaces_variables(self):
        atom = Atom("p", (X, "c", Y))
        out = atom.substitute({X: "a", Y: "b"})
        assert out == Atom("p", ("a", "c", "b"))

    def test_substitute_without_bindings_is_identity(self):
        atom = Atom("p", (X,))
        assert atom.substitute({}) is atom


class TestUnify:
    def test_ground_atoms_unify_when_equal(self):
        assert unify(Atom("p", ("a",)), Atom("p", ("a",)), {}) == {}

    def test_ground_mismatch_fails(self):
        assert unify(Atom("p", ("a",)), Atom("p", ("b",)), {}) is None

    def test_predicate_mismatch_fails(self):
        assert unify(Atom("p", ("a",)), Atom("q", ("a",)), {}) is None

    def test_arity_mismatch_fails(self):
        assert unify(Atom("p", ("a",)), Atom("p", ("a", "b")), {}) is None

    def test_variable_binds_to_constant(self):
        subst = unify(Atom("p", (X,)), Atom("p", ("a",)), {})
        assert subst == {X: "a"}

    def test_bound_variable_must_match(self):
        assert unify(Atom("p", (X, X)), Atom("p", ("a", "b")), {}) is None
        assert unify(Atom("p", (X, X)), Atom("p", ("a", "a")), {}) == {X: "a"}

    def test_variable_to_variable_aliasing(self):
        subst = unify(Atom("p", (X,)), Atom("p", (Y,)), {})
        assert subst in ({X: Y}, {Y: X})

    def test_input_substitution_not_mutated(self):
        initial = {X: "a"}
        unify(Atom("p", (Y,)), Atom("p", ("b",)), initial)
        assert initial == {X: "a"}


class TestRules:
    def test_unsafe_head_variable_rejected(self):
        with pytest.raises(PolicyError):
            Rule(Atom("p", (X, Y)), (Atom("q", (X,)),))

    def test_fact_rule_allows_head_variables_absent(self):
        Rule(Atom("p", ("a",)))  # no body, ground head: fine

    def test_rename_produces_fresh_variables(self):
        import itertools

        from tests.policy.rules_oracle import rename

        rule = Rule(Atom("p", (X,)), (Atom("q", (X,)),))
        renamed = rename(rule, itertools.count())
        assert renamed.head.args[0] != X
        assert renamed.head.args[0] == renamed.body[0].args[0]

    def test_repr_forms(self):
        assert repr(Rule(Atom("p", ("a",)))) == "p(a)."
        assert ":-" in repr(Rule(Atom("p", (X,)), (Atom("q", (X,)),)))


class TestProve:
    def test_fact_lookup(self):
        rules = RuleSet([])
        facts = facts_from(Atom("p", ("a",)))
        proof = rules.prove(Atom("p", ("a",)), facts)
        assert proof is not None
        assert proof.justification == "fact"
        assert proof.source == "cred-0"

    def test_missing_fact_fails(self):
        rules = RuleSet([])
        assert rules.prove(Atom("p", ("a",)), facts_from()) is None

    def test_single_rule_chain(self):
        rules = RuleSet([Rule(Atom("p", (X,)), (Atom("q", (X,)),))])
        facts = facts_from(Atom("q", ("a",)))
        proof = rules.prove(Atom("p", ("a",)), facts)
        assert proof is not None
        assert proof.justification == "rule"
        assert proof.atom == Atom("p", ("a",))
        assert proof.children[0].atom == Atom("q", ("a",))

    def test_conjunction_with_shared_variable(self):
        rules = RuleSet(
            [
                Rule(
                    Atom("may_read", (X, "customers")),
                    (
                        Atom("sales_rep", (X,)),
                        Atom("assigned_region", (X, R)),
                        Atom("located_in", (X, R)),
                    ),
                )
            ]
        )
        facts = facts_from(
            Atom("sales_rep", ("bob",)),
            Atom("assigned_region", ("bob", "east")),
            Atom("located_in", ("bob", "east")),
        )
        assert rules.prove(Atom("may_read", ("bob", "customers")), facts) is not None

    def test_region_mismatch_blocks_proof(self):
        rules = RuleSet(
            [
                Rule(
                    Atom("may_read", (X, "customers")),
                    (Atom("assigned_region", (X, R)), Atom("located_in", (X, R))),
                )
            ]
        )
        facts = facts_from(
            Atom("assigned_region", ("bob", "east")),
            Atom("located_in", ("bob", "west")),
        )
        assert rules.prove(Atom("may_read", ("bob", "customers")), facts) is None

    def test_backtracking_across_candidate_facts(self):
        """The prover must try the second region binding when the first fails."""
        rules = RuleSet(
            [
                Rule(
                    Atom("ok", (X,)),
                    (Atom("region", (X, R)), Atom("present", (X, R))),
                )
            ]
        )
        facts = facts_from(
            Atom("region", ("bob", "east")),
            Atom("region", ("bob", "west")),
            Atom("present", ("bob", "west")),
        )
        proof = rules.prove(Atom("ok", ("bob",)), facts)
        assert proof is not None

    def test_transitive_rules(self):
        rules = RuleSet(
            [
                Rule(Atom("ancestor", (X, Y)), (Atom("parent", (X, Y)),)),
                Rule(
                    Atom("ancestor", (X, Y)),
                    (Atom("parent", (X, R)), Atom("ancestor", (R, Y))),
                ),
            ]
        )
        facts = facts_from(
            Atom("parent", ("a", "b")),
            Atom("parent", ("b", "c")),
            Atom("parent", ("c", "d")),
        )
        assert rules.prove(Atom("ancestor", ("a", "d")), facts) is not None
        assert rules.prove(Atom("ancestor", ("d", "a")), facts) is None

    def test_cyclic_rules_terminate(self):
        rules = RuleSet(
            [
                Rule(Atom("p", (X,)), (Atom("q", (X,)),)),
                Rule(Atom("q", (X,)), (Atom("p", (X,)),)),
            ]
        )
        assert rules.prove(Atom("p", ("a",)), facts_from()) is None

    def test_disjunction_via_multiple_rules(self):
        rules = RuleSet(
            [
                Rule(Atom("may_read", (X,)), (Atom("admin", (X,)),)),
                Rule(Atom("may_read", (X,)), (Atom("capability", (X,)),)),
            ]
        )
        facts = facts_from(Atom("capability", ("bob",)))
        proof = rules.prove(Atom("may_read", ("bob",)), facts)
        assert proof is not None
        assert proof.children[0].atom == Atom("capability", ("bob",))


class TestProofNode:
    def _proof(self):
        rules = RuleSet(
            [Rule(Atom("p", (X,)), (Atom("q", (X,)), Atom("r", (X,))))]
        )
        facts = facts_from(Atom("q", ("a",)), Atom("r", ("a",)))
        return rules.prove(Atom("p", ("a",)), facts)

    def test_leaves_are_facts(self):
        proof = self._proof()
        assert all(leaf.justification == "fact" for leaf in proof.leaves())
        assert len(proof.leaves()) == 2

    def test_sources_list_supporting_credentials(self):
        assert set(self._proof().sources()) == {"cred-0", "cred-1"}

    def test_size_counts_nodes(self):
        assert self._proof().size() == 3

    def test_proof_atoms_are_ground(self):
        proof = self._proof()
        assert proof.atom.is_ground
        assert all(child.atom.is_ground for child in proof.children)


class TestFactBase:
    def test_non_ground_fact_rejected(self):
        with pytest.raises(PolicyError):
            FactBase().add(Atom("p", (X,)))

    def test_contains_and_len(self):
        base = facts_from(Atom("p", ("a",)), Atom("q", ("b",)))
        assert Atom("p", ("a",)) in base
        assert Atom("p", ("b",)) not in base
        assert len(base) == 2
