"""Property test: the indexed engine is equivalent to the naive reference.

On randomized (seeded, safe) rule sets and fact bases, the indexed/tabled
engine and the naive resolver must agree on the **derivability verdict** of
every ground goal, and every witness either engine produces must be
*well-formed*: the root proves the asked goal, every leaf is a fact present
in the fact base, and every internal node is justified by its rule — some
substitution maps the rule's head to the node's atom and the rule's body
atoms to the children's atoms, in order.

The generated programs stay shallow (small predicate/constant pools, arity
at most 2) so the naive engine's depth limit is never the deciding factor —
divergence here would be an engine bug, not a truncation artifact.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.policy.rules import Atom, FactBase, Rule, RuleSet, Variable, unify
from tests.policy.rules_oracle import naive_view

PREDICATES = ("p", "q", "r", "b")
CONSTANTS = ("a", "b", "c")
VARIABLES = tuple(Variable(name) for name in "XYZ")

constants = st.sampled_from(CONSTANTS)
predicates = st.sampled_from(PREDICATES)


@st.composite
def ground_atoms(draw):
    predicate = draw(predicates)
    arity = draw(st.integers(min_value=1, max_value=2))
    return Atom(predicate, tuple(draw(constants) for _ in range(arity)))


@st.composite
def safe_rules(draw):
    """A range-restricted rule: every head variable occurs in the body."""
    head_pred = draw(predicates)
    arity = draw(st.integers(min_value=1, max_value=2))
    head_args = tuple(
        draw(st.sampled_from(VARIABLES)) if draw(st.booleans()) else draw(constants)
        for _ in range(arity)
    )
    head = Atom(head_pred, head_args)
    head_vars = [arg for arg in head_args if isinstance(arg, Variable)]

    body = []
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        body_pred = draw(predicates)
        body_arity = draw(st.integers(min_value=1, max_value=2))
        pool = list(head_vars) + list(CONSTANTS)
        body.append(
            Atom(body_pred, tuple(draw(st.sampled_from(pool)) for _ in range(body_arity)))
        )
    # Bind any head variable the body missed through a fresh "b" goal, so
    # the rule stays safe without forcing bodies to mention every variable.
    bound = {arg for atom in body for arg in atom.args if isinstance(arg, Variable)}
    for variable in head_vars:
        if variable not in bound:
            body.append(Atom("b", (variable,)))
    if head_vars and not body:
        body.append(Atom("b", (head_vars[0],)))
    return Rule(head, tuple(body))


@st.composite
def programs(draw):
    rules = draw(st.lists(safe_rules(), min_size=1, max_size=5))
    facts = FactBase()
    fact_atoms = draw(st.lists(ground_atoms(), min_size=1, max_size=8))
    # Seed the binder predicate so "b(V)" goals are satisfiable.
    for constant in draw(st.lists(constants, min_size=0, max_size=3)):
        fact_atoms.append(Atom("b", (constant,)))
    for index, atom in enumerate(fact_atoms):
        facts.add(atom, source=f"cred-{index}")
    goals = draw(st.lists(ground_atoms(), min_size=1, max_size=5))
    # Also probe goals the program is likely to reach: every rule head,
    # grounded with the first constant.
    for rule in rules:
        grounded = rule.head.substitute(
            {arg: CONSTANTS[0] for arg in rule.head.args if isinstance(arg, Variable)}
        )
        goals.append(grounded)
    return rules, facts, goals


def assert_well_formed(node, goal, facts):
    assert node.atom == goal
    assert node.atom.is_ground
    stack = [node]
    while stack:
        current = stack.pop()
        assert current.atom.is_ground
        if current.justification == "fact":
            assert current.atom in facts, f"leaf {current.atom!r} is not a known fact"
            continue
        assert current.justification == "rule"
        rule = current.rule
        assert rule is not None
        assert len(current.children) == len(rule.body)
        subst = unify(rule.head, current.atom, {})
        assert subst is not None, f"{rule!r} cannot justify {current.atom!r}"
        for body_atom, child in zip(rule.body, current.children):
            subst = unify(body_atom, child.atom, subst)
            assert subst is not None, (
                f"child {child.atom!r} does not match body atom {body_atom!r}"
            )
        stack.extend(current.children)


@settings(max_examples=80, deadline=None)
@given(programs())
def test_indexed_agrees_with_naive_reference(program):
    rules, facts, goals = program
    indexed = RuleSet(rules)
    naive = naive_view(indexed)
    for goal in goals:
        indexed_proof = indexed.prove(goal, facts)
        naive_proof = naive.prove(goal, facts)
        assert (indexed_proof is None) == (naive_proof is None), (
            f"derivability diverged on {goal!r}"
        )
        if indexed_proof is not None:
            assert_well_formed(indexed_proof, goal, facts)
            assert_well_formed(naive_proof, goal, facts)


@settings(max_examples=40, deadline=None)
@given(programs())
def test_indexed_witness_is_byte_identical_to_naive(program):
    # Stronger than verdict agreement: the engines explore candidates in
    # the same order, so the *first* witness should be the same tree.
    rules, facts, goals = program
    indexed = RuleSet(rules)
    naive = naive_view(indexed)
    for goal in goals:
        assert indexed.prove(goal, facts) == naive.prove(goal, facts)
