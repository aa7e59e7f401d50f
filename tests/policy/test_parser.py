"""Unit + property tests for the policy rule language."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.errors import PolicyError
from repro.policy.parser import (
    parse_atom,
    parse_rules,
    render_atom,
    render_rule,
    render_rules,
)
from repro.policy.rules import Atom, FactBase, Rule, RuleSet, Variable


class TestParseAtoms:
    def test_nullary_atom(self):
        assert parse_atom("admin") == Atom("admin", ())

    def test_constants_and_variables(self):
        atom = parse_atom("may_read(U, customers)")
        assert atom == Atom("may_read", (Variable("U"), "customers"))

    def test_numbers(self):
        assert parse_atom("version(3)") == Atom("version", (3,))
        assert parse_atom("delta(-2)") == Atom("delta", (-2,))

    def test_quoted_constants(self):
        atom = parse_atom("label('hello world')")
        assert atom == Atom("label", ("hello world",))

    def test_quoted_escapes(self):
        atom = parse_atom(r"label('it\'s')")
        assert atom == Atom("label", ("it's",))

    def test_slashed_item_names(self):
        atom = parse_atom("item(customers/acme-account)")
        assert atom == Atom("item", ("customers/acme-account",))

    def test_uppercase_predicate_rejected(self):
        with pytest.raises(PolicyError):
            parse_atom("MayRead(U)")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(PolicyError):
            parse_atom("p(a) extra")


class TestParseRules:
    def test_fact(self):
        rules = parse_rules("item(inventory).")
        assert rules.rules == (Rule(Atom("item", ("inventory",))),)

    def test_rule_with_body(self):
        rules = parse_rules("may_read(U, I) :- role(U, member), item(I).")
        rule = rules.rules[0]
        assert rule.head.predicate == "may_read"
        assert [atom.predicate for atom in rule.body] == ["role", "item"]

    def test_multiline_and_comments(self):
        program = """
        # the CompuMe policy
        may_read(U, I) :- sales_rep(U), assigned_region(U, R),
                          located_in(U, R), item(I).
        % legacy comment style
        item(stock).
        """
        rules = parse_rules(program)
        assert len(rules) == 2

    def test_missing_dot_rejected(self):
        with pytest.raises(PolicyError):
            parse_rules("item(a)")

    def test_junk_character_reports_position(self):
        with pytest.raises(PolicyError) as excinfo:
            parse_rules("item(a).\nbad @ rule.")
        assert "line 2" in str(excinfo.value)

    def test_unsafe_rule_rejected_at_construction(self):
        with pytest.raises(PolicyError):
            parse_rules("grant(U, X) :- role(U, member).")

    def test_parsed_rules_prove(self):
        rules = parse_rules(
            """
            may_read(U, I) :- role(U, member), item(I).
            item(inventory).
            """
        )
        facts = FactBase()
        facts.add(Atom("role", ("bob", "member")), source="c1")
        assert rules.prove(Atom("may_read", ("bob", "inventory")), facts) is not None

    def test_empty_program(self):
        assert len(parse_rules("   # nothing here\n")) == 0

    def test_negated_literal_is_refused_by_name(self):
        """The language has no negation: ``not banned(U)`` is a syntax error."""
        text = "may_read(U, I) :- role(U, member), not banned(U), item(I)."
        with pytest.raises(PolicyError, match=r"line 1: expected DOT, got NAME 'banned'"):
            parse_rules(text)

    def test_an_atom_named_not_is_still_an_atom(self):
        rules = parse_rules("p(X) :- not(X), q(X).")
        assert [atom.predicate for atom in rules.rules[0].body] == ["not", "q"]


class TestRendering:
    def test_fact_rendering(self):
        assert render_rule(Rule(Atom("item", ("a",)))) == "item(a)."

    def test_rule_rendering(self):
        rule = Rule(
            Atom("p", (Variable("X"),)),
            (Atom("q", (Variable("X"),)), Atom("r", (Variable("X"),))),
        )
        assert render_rule(rule) == "p(X) :- q(X), r(X)."

    def test_awkward_constant_is_quoted(self):
        assert render_atom(Atom("label", ("hello world",))) == "label('hello world')"

    def test_uppercase_constant_is_quoted(self):
        # A constant that *looks* like a variable must round-trip safely.
        rendered = render_atom(Atom("p", ("Uppercase",)))
        assert parse_atom(rendered) == Atom("p", ("Uppercase",))

    def test_render_rules_with_header(self):
        text = render_rules(RuleSet([Rule(Atom("item", ("a",)))]), header="v1")
        assert text.startswith("# v1\n")
        assert parse_rules(text).rules == (Rule(Atom("item", ("a",))),)


# -- property: parse ∘ render = identity -------------------------------------------

constants = st.one_of(
    st.from_regex(r"[a-z][a-z0-9_/-]{0,6}", fullmatch=True),
    st.integers(min_value=-99, max_value=99),
    st.text(
        alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd"), max_codepoint=0x7F),
        min_size=1,
        max_size=6,
    ),
)
variables = st.from_regex(r"[A-Z][a-z0-9]{0,4}", fullmatch=True).map(Variable)
predicates = st.from_regex(r"[a-z][a-z0-9_]{0,8}", fullmatch=True)


@st.composite
def atoms(draw, allow_variables=True):
    predicate = draw(predicates)
    arity = draw(st.integers(min_value=0, max_value=3))
    choices = st.one_of(constants, variables) if allow_variables else constants
    return Atom(predicate, tuple(draw(choices) for _ in range(arity)))


@st.composite
def safe_rules(draw):
    """Rules respecting range restriction (head vars appear in the body)."""
    body = tuple(draw(atoms()) for _ in range(draw(st.integers(0, 3))))
    body_vars = [arg for atom in body for arg in atom.args if isinstance(arg, Variable)]
    predicate = draw(predicates)
    arity = draw(st.integers(min_value=0, max_value=3))
    head_args = []
    for _ in range(arity):
        if body_vars and draw(st.booleans()):
            head_args.append(draw(st.sampled_from(body_vars)))
        else:
            head_args.append(draw(constants))
    return Rule(Atom(predicate, tuple(head_args)), body)


class TestRoundTrip:
    @given(atoms(allow_variables=False))
    @settings(max_examples=150)
    def test_ground_atom_round_trip(self, atom):
        assert parse_atom(render_atom(atom)) == atom

    @given(safe_rules())
    @settings(max_examples=150)
    def test_rule_round_trip(self, rule):
        parsed = parse_rules(render_rule(rule) + "\n")
        assert parsed.rules == (rule,)

    @given(st.lists(safe_rules(), max_size=6))
    @settings(max_examples=50)
    def test_program_round_trip(self, rules):
        program = RuleSet(rules)
        assert parse_rules(render_rules(program)) == program
