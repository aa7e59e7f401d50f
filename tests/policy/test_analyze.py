"""Static policy analyzer tests: mutation classes, precision, and impact.

The mutation suite seeds one broken policy per defect class and asserts
the analyzer reports exactly the right POL code; the precision suite
asserts zero findings on every policy the repo actually ships (the
acceptance bar: no false positives in-tree).
"""

from __future__ import annotations

import importlib.util
import json
import pathlib
import random

import pytest

from repro.policy.analyze import (
    DEFAULT_ROOTS,
    RULES,
    HeldRules,
    analyze_rules,
    analyze_text,
    changed_predicates,
    clauses_from_rules,
    dependency_closure,
    diff_impact,
    intree_policies,
    main,
    parse_clauses,
)
from repro.policy.parser import parse_rules
from repro.policy.policy import Policy, PolicyId
from repro.policy.rules import Atom, Rule, RuleSet, Variable
from repro.workloads.testbed import MEMBER_ROLE, member_policy_rules
from repro.workloads.updates import benign_successor, restricting_successor

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


def codes_of(text: str, roots=DEFAULT_ROOTS):
    return sorted(set(analyze_text(text, roots=roots).codes()))


# -- mutation classes: each defect detected with the right code ----------------

MUTATIONS = [
    # (name, policy text, expected codes)
    (
        "fact_with_head_variable",
        "may_read(U, chart).",
        ["POL001"],
    ),
    (
        "unbound_head_variable",
        "may_read(U, I) :- member(U).",
        ["POL001"],
    ),
    (
        "unbound_negated_variable",
        "may_read(U, I) :- member(U, I), not banned(W).",
        ["POL001", "POL007"],
    ),
    (
        "direct_negation_cycle",
        "may_read(U, I) :- item(I), reader(U), not may_read(U, I).",
        ["POL002", "POL007"],
    ),
    (
        "mutual_negation_cycle",
        (
            "may_read(U, I) :- item(I), user(U), not blocked(U, I).\n"
            "blocked(U, I) :- item(I), user(U), not may_read(U, I).\n"
        ),
        ["POL002", "POL007"],
    ),
    (
        "dead_rule",
        (
            "orphan(U) :- member(U, x).\n"
            "may_read(U, I) :- member(U, I).\n"
        ),
        ["POL003"],
    ),
    (
        "duplicate_rule",
        (
            "may_read(U, I) :- member(U, I).\n"
            "may_read(U, I) :- member(U, I).\n"
        ),
        ["POL004"],
    ),
    (
        "subsumed_rule",
        (
            "may_read(U, I) :- member(U, I).\n"
            "may_read(alice, I) :- member(alice, I), vip(alice).\n"
        ),
        ["POL004"],
    ),
    (
        "arity_drift",
        (
            "member(alice).\n"
            "may_read(U, I) :- member(U, I).\n"
        ),
        ["POL005"],
    ),
    (
        "constant_type_drift",
        (
            "level(alice, 3).\n"
            "level(bob, 'three').\n"
            "may_read(U, I) :- level(U, L), item(I).\n"
        ),
        ["POL005"],
    ),
    (
        "direct_recursion",
        "may_read(U, I) :- may_read(U, I).",
        ["POL006"],
    ),
    (
        "mutual_recursion",
        (
            "may_read(U, I) :- delegate(U, I).\n"
            "delegate(U, I) :- may_read(U, I).\n"
        ),
        ["POL006"],
    ),
    (
        "negation_not_runtime_loadable",
        "may_read(U, I) :- member(U, I), not revoked(U, I).",
        ["POL007"],
    ),
]


@pytest.mark.parametrize("name,text,expected", MUTATIONS, ids=[m[0] for m in MUTATIONS])
def test_mutation_class_detected_with_right_code(name, text, expected):
    assert codes_of(text) == expected


def test_mutation_suite_covers_every_rule_code():
    covered = {code for _, _, expected in MUTATIONS for code in expected}
    assert covered == set(RULES)


def test_clean_policy_has_no_findings():
    report = analyze_text(
        "member(alice, chart).\n"
        "may_read(U, I) :- member(U, I).\n"
        "may_write(U, I) :- member(U, I), owner(U, I).\n"
    )
    assert report.ok and report.codes() == ()


# -- precision: zero false positives on everything the repo ships --------------


def test_all_intree_rulesets_are_clean():
    for label, rules in intree_policies():
        report = analyze_rules(rules, path=label)
        assert report.ok, report.format()


def test_example_textual_policies_are_clean():
    path = REPO_ROOT / "examples" / "healthcare_multidomain.py"
    spec = importlib.util.spec_from_file_location("healthcare_example", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    for name in ("CLINICAL_POLICY", "BILLING_POLICY"):
        report = analyze_text(getattr(module, name), path=name)
        assert report.ok, report.format()


def test_churn_marker_facts_are_not_dead_rules():
    """benign_successor appends nullary ``revision_N.`` marker facts; facts
    are data, not rules, so POL003 must not fire on them."""
    report = analyze_text(
        "revision_7.\n"
        "member(alice, chart).\n"
        "may_read(U, I) :- member(U, I).\n"
    )
    assert report.ok, report.format()


# -- spans, suppression, report shape ------------------------------------------


def test_findings_carry_precise_spans():
    text = "member(alice).\nmay_read(U, I) :- member(U).\n"
    (finding,) = analyze_text(text).findings
    assert (finding.code, finding.line) == ("POL001", 2)
    assert finding.col == 1
    assert finding.predicate == "may_read"


def test_suppression_hides_matching_code_only():
    dead = "orphan(U) :- member(U, x).  # analyze: ignore[POL003] -- ops tooling\n"
    live = "may_read(U, I) :- member(U, I).\n"
    report = analyze_text(dead + live)
    assert report.ok
    assert [f.code for f in report.findings if f.suppressed] == ["POL003"]
    wrong = dead.replace("POL003", "POL001")
    assert codes_of(wrong + live) == ["POL003"]


def test_report_json_is_machine_readable():
    payload = analyze_text("may_read(U, I) :- member(U).", path="p").to_json()
    assert payload["path"] == "p" and payload["ok"] is False
    assert payload["counts"]["errors"] == 1
    (finding,) = payload["findings"]
    assert finding["code"] == "POL001"


def test_clauses_from_rules_roundtrip():
    rules = parse_rules(
        "member(alice, chart).\nmay_read(U, I) :- member(U, I).\n"
    )
    clauses = clauses_from_rules(rules)
    assert [c.head.predicate for c in clauses] == ["member", "may_read"]
    assert clauses[0].is_fact and not clauses[1].is_fact


# -- impact analysis ------------------------------------------------------------


def test_changed_predicates_is_rule_level():
    old = parse_rules("member(alice, chart).\nmay_read(U, I) :- member(U, I).\n")
    same = parse_rules("member(alice, chart).\nmay_read(U, I) :- member(U, I).\n")
    bumped = parse_rules(
        "member(alice, chart).\nmay_read(U, I) :- member(U, I).\nrevision_2.\n"
    )
    rewritten = parse_rules(
        "member(alice, chart).\nmay_read(U, I) :- member(U, I), vip(U).\n"
    )
    assert changed_predicates(old, same) == frozenset()
    assert changed_predicates(old, bumped) == frozenset({"revision_2"})
    assert changed_predicates(old, rewritten) == frozenset({"may_read"})


def test_dependency_closure_is_downward_reachability():
    rules = parse_rules(
        "may_read(U, I) :- member(U, I), cleared(U).\n"
        "cleared(U) :- badge(U).\n"
        "unrelated(X) :- widget(X).\n"
    )
    closure = dependency_closure(rules, ("may_read",))
    assert closure == frozenset({"may_read", "member", "cleared", "badge"})
    assert "unrelated" not in closure and "widget" not in closure


def test_diff_impact_flags_roots_only_when_reachable():
    old = parse_rules(
        "may_read(U, I) :- member(U, I).\n"
        "audit(U) :- badge(U).\n"
    )
    root_hit = parse_rules(
        "may_read(U, I) :- member(U, I), vip(U).\n"
        "audit(U) :- badge(U).\n"
    )
    side_only = parse_rules(
        "may_read(U, I) :- member(U, I).\n"
        "audit(U) :- badge(U), recent(U).\n"
    )
    assert diff_impact(old, root_hit).roots_affected
    assert not diff_impact(old, side_only).roots_affected
    assert diff_impact(old, side_only).changed == frozenset({"audit"})


# -- the diff against its oracle ----------------------------------------------------
#
# ``changed_predicates`` moves one set of rules per *holder* (``HeldRules``) by
# what an install appends, and rebuilds both sets for any other change.  The
# oracle rebuilds both sets on every call; the harness below holds the two equal
# on every kind of pair, asks every pair four times (twice, in both argument
# orders) and re-uses rule sets across pairs — once with a throw-away holder per
# call and once through a single holder carried across every pair of every seed,
# so state left by an unrelated pair, by the reverse ask or by a skipped version
# has to be noticed, and a tail rule the held version already has (``duplicated``)
# has to stay *no* change.


def _oracle_changed_predicates(old: RuleSet, new: RuleSet):
    """The parent's ``changed_predicates``, verbatim."""
    old_rules, new_rules = set(old.rules), set(new.rules)
    return frozenset(
        rule.head.predicate for rule in old_rules.symmetric_difference(new_rules)
    )


def _rule_pool():
    """40 distinct rules over 10 head predicates: ground facts and Horn rules."""
    x, y = Variable("X"), Variable("Y")
    pool = []
    for index in range(40):
        head = f"p{index % 10}"
        if index % 4 == 0:
            pool.append(Rule(Atom(head, (f"c{index}",))))
        elif index % 4 == 1:
            pool.append(Rule(Atom(head, (x,)), (Atom(f"q{index}", (x,)),)))
        else:
            pool.append(
                Rule(Atom(head, (x, y)), (Atom(f"q{index}", (x,)), Atom(f"r{index % 3}", (y,))))
            )
    assert len(set(pool)) == 40
    return pool


def _rebuilt(rule: Rule) -> Rule:
    """An equal rule made of fresh ``Rule`` and ``Atom`` objects."""
    return Rule(
        Atom(rule.head.predicate, rule.head.args),
        tuple(Atom(atom.predicate, atom.args) for atom in rule.body),
    )


def _diff_pairs(seed: int):
    """Fresh ``(kind, old, new)`` pairs; rule sets recur across pairs on purpose."""
    rng = random.Random(seed)
    pool = _rule_pool()
    pairs = []
    for _ in range(12):
        base = rng.sample(pool, rng.randint(3, 25))
        spare = [rule for rule in pool if rule not in base]
        old = RuleSet(base)
        victim = rng.randrange(len(base))
        rewritten = list(base)
        rewritten[victim] = Rule(
            base[victim].head, base[victim].body + (Atom("extra", (base[victim].head.args[0],)),)
        )
        shuffled = list(base)
        rng.shuffle(shuffled)
        pairs += [
            ("added", old, RuleSet(base + [rng.choice(spare)])),
            ("removed", old, RuleSet(base[:victim] + base[victim + 1:])),
            ("rewritten", old, RuleSet(rewritten)),
            ("reordered", old, RuleSet(shuffled)),
            ("duplicated", old, RuleSet(base + [base[victim]])),
            ("duplicated+removed", RuleSet(base + [base[0]]), RuleSet(base[1:] + [base[-1]])),
            ("disjoint", old, RuleSet(rng.sample(spare, min(len(spare), len(base))))),
            ("equal, distinct objects", old, RuleSet([_rebuilt(rule) for rule in base])),
            ("same object", old, old),
            ("empty", old, RuleSet([])),
        ]

    def chain(first: Policy, successor, length: int):
        versions = [first]
        for step in range(length):
            versions.append(versions[-1].successor(successor(versions[-1], step)))
        return [policy.rules for policy in versions]

    first = Policy(PolicyId("app"), 1, member_policy_rules([f"s1/x{j}" for j in range(8)]))
    benign = chain(first, lambda policy, _step: benign_successor(policy), 50)
    alternate = chain(
        first,
        lambda policy, step: restricting_successor(
            policy, "auditor" if step % 2 == 0 else MEMBER_ROLE
        ),
        20,
    )
    for name, versions in (("benign", benign), ("alternate", alternate)):
        for skip in (1, 2, 7, len(versions) - 1):
            pairs += [
                (f"{name} chain", versions[i], versions[i + skip])
                for i in range(len(versions) - skip)
            ]
    return pairs


def _mismatches(diff, seeds=(0, 1, 2)):
    """The kinds of pair on which ``diff`` ever disagrees with the oracle."""
    wrong = set()
    for seed in seeds:
        for kind, old, new in _diff_pairs(seed):
            expected = _oracle_changed_predicates(old, new)
            asked = ((old, new), (new, old), (old, new), (new, old))
            if any(diff(a, b) != expected for a, b in asked):
                wrong.add(kind)
    return wrong


def _through(holder):
    """``changed_predicates`` asked through one long-lived ``holder``."""
    return lambda old, new: changed_predicates(old, new, holder)


def _benign_chain(length: int):
    """The rule sets of ``length`` benign successors of the 40-rule pool, in order."""
    versions = [Policy(PolicyId("app"), 1, RuleSet(_rule_pool()))]
    for _ in range(length):
        versions.append(versions[-1].successor(benign_successor(versions[-1])))
    return [policy.rules for policy in versions]


def test_changed_predicates_agrees_with_the_parents_on_every_kind_of_pair():
    assert {kind for kind, _, _ in _diff_pairs(0)} == {
        "added", "removed", "rewritten", "reordered", "duplicated", "duplicated+removed",
        "disjoint", "equal, distinct objects", "same object", "empty",
        "benign chain", "alternate chain",
    }
    assert _mismatches(changed_predicates) == set()
    assert _mismatches(_through(HeldRules())) == set()


def _mutant_one_sided(old: RuleSet, new: RuleSet):
    if old is new:
        return frozenset()
    return frozenset(
        rule.head.predicate for rule in set(old.rules).difference(new.rules)
    )


def _mutant_wide_shortcut(old: RuleSet, new: RuleSet):
    if old is new or len(old) == len(new):
        return frozenset()
    return frozenset(
        rule.head.predicate
        for rule in set(old.rules).symmetric_difference(new.rules)
    )


def _mutant_cache_on_the_other_side():
    """A per-rule-set cache that files the set it built under the other argument.

    Right the first time a pair is asked; the second ask reads the leak.
    """
    cached = {}  # id(rule set) -> (the rule set, pinning its id; "its" rules)

    def distinct(rule_set: RuleSet):
        entry = cached.get(id(rule_set))
        return entry[1] if entry else frozenset(rule_set.rules)

    def diff(old: RuleSet, new: RuleSet):
        if old is new:
            return frozenset()
        old_set, new_set = distinct(old), distinct(new)
        cached[id(new)] = (new, old_set)
        return frozenset(
            rule.head.predicate for rule in old_set.symmetric_difference(new_set)
        )

    return diff


def test_the_diff_harness_catches_three_seeded_mutants():
    assert {"added", "removed", "benign chain"} <= _mismatches(_mutant_one_sided)
    assert {"rewritten", "disjoint", "alternate chain"} <= _mismatches(_mutant_wide_shortcut)
    assert {"added", "rewritten", "benign chain"} <= _mismatches(_mutant_cache_on_the_other_side())
    # The leak is why every pair is asked more than once: the first answer is right.
    leaky = _mutant_cache_on_the_other_side()
    a, b = RuleSet(_rule_pool()[:5]), RuleSet(_rule_pool()[3:9])
    assert leaky(a, b) == _oracle_changed_predicates(a, b) != leaky(b, a)


class _MutantHolder(HeldRules):
    """``HeldRules.advance`` line for line, with one seeded defect switched on."""

    def __init__(self, defect: str) -> None:
        super().__init__()
        self.defect = defect

    def advance(self, old: RuleSet, new: RuleSet):
        stale = self.rules is not old.rules
        if self.defect == "trusts its state":
            stale = not self.distinct  # seeded once, never checked to be for ``old``
        if stale:
            self.rules, self.distinct = old.rules, set(old.rules)
        held, incoming = self.rules, new.rules
        if self.defect == "at least as long":
            extends = len(incoming) >= len(held)
        else:
            extends = incoming[: len(held)] == held
        if extends:
            changed = set(incoming[len(held):])
            if self.defect != "no membership test":
                changed = changed.difference(self.distinct)
            self.distinct.update(changed)
        else:
            distinct = set(incoming)
            changed = distinct.symmetric_difference(self.distinct)
            self.distinct = distinct
        self.rules = incoming
        return frozenset(rule.head.predicate for rule in changed)


def test_the_holder_harness_catches_three_seeded_mutants():
    assert _mismatches(_through(_MutantHolder("none"))) == set()  # the copy is faithful
    # State that is for some other version: left by an unrelated pair, or by a
    # chain asked with a skip (consecutive steps are the one order it gets right).
    trusting = _mismatches(_through(_MutantHolder("trusts its state")))
    assert {"added", "benign chain", "alternate chain"} <= trusting
    for skip, wrong in ((1, False), (2, True), (7, True)):
        holder, chain = _MutantHolder("trusts its state"), _benign_chain(2 + 2 * skip)
        answers = [
            changed_predicates(chain[i], chain[i + skip], holder) for i in (0, 1)
        ]
        expected = [_oracle_changed_predicates(chain[i], chain[i + skip]) for i in (0, 1)]
        assert (answers != expected) is wrong, skip
    # A tail rule the held version already has is not a change.
    assert "duplicated" in _mismatches(_through(_MutantHolder("no membership test")))
    # "Extends" is prefix equality, not length.
    assert {"rewritten", "alternate chain"} <= _mismatches(
        _through(_MutantHolder("at least as long"))
    )


def test_diffing_a_rule_set_with_itself_hashes_nothing(monkeypatch):
    chain = _benign_chain(50)
    rules = chain[0]
    hashed = []
    original = Rule.__hash__
    monkeypatch.setattr(
        Rule, "__hash__", lambda self: hashed.append(self) or original(self)
    )
    assert changed_predicates(rules, rules) == frozenset()
    assert changed_predicates(rules, rules, HeldRules()) == frozenset()
    assert hashed == []
    # An install costs what it appends: through one holder, every step after
    # the first hashes the appended rule (at most twice) and no other rule.
    holder = HeldRules()
    for step, (old, new) in enumerate(zip(chain, chain[1:])):
        del hashed[:]
        assert changed_predicates(old, new, holder) == frozenset({f"revision_{step + 2}"})
        if step:
            assert 1 <= len(hashed) <= 2 and all(rule is new.rules[-1] for rule in hashed)
        else:
            assert len(hashed) <= len(old) + 2


# -- lenient grammar -------------------------------------------------------------


def test_lenient_parser_accepts_what_runtime_rejects():
    # The runtime Rule constructor raises on unsafe heads; the analyzer
    # must parse them anyway to be able to report POL001.
    clauses = parse_clauses("may_read(U, I) :- member(U).")
    assert len(clauses) == 1
    clauses = parse_clauses("p(X) :- q(X), not r(X).")
    assert clauses[0].body[1].negated


# -- CLI --------------------------------------------------------------------------


def test_cli_exit_codes_and_json(tmp_path, capsys):
    bad = tmp_path / "bad.pl"
    bad.write_text("may_read(U, I) :- member(U).\n", encoding="utf-8")
    good = tmp_path / "good.pl"
    good.write_text("may_read(U, I) :- member(U, I).\n", encoding="utf-8")
    assert main([str(good)]) == 0
    assert main([str(bad)]) == 1
    capsys.readouterr()
    assert main([str(bad), "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["findings"][0]["code"] == "POL001"


def test_cli_intree_gate_is_clean():
    assert main(["--intree"]) == 0


def test_cli_diff_rejects_unloadable_policy(tmp_path, capsys):
    # Impact analysis is only defined between runtime-loadable versions;
    # an unsafe file must produce a diagnostic and exit 2, not a traceback.
    good = tmp_path / "good.pl"
    bad = tmp_path / "bad.pl"
    good.write_text("may_read(U, I) :- member(U, I).\n", encoding="utf-8")
    bad.write_text("may_read(U, I) :- member(U).\n", encoding="utf-8")
    assert main(["--diff", str(good), str(bad)]) == 2
    assert "not runtime-loadable" in capsys.readouterr().err


def test_cli_diff_reports_impact(tmp_path, capsys):
    old = tmp_path / "old.pl"
    new = tmp_path / "new.pl"
    old.write_text("may_read(U, I) :- member(U, I).\n", encoding="utf-8")
    new.write_text("may_read(U, I) :- member(U, I), vip(U).\n", encoding="utf-8")
    assert main(["--diff", str(old), str(new), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["changed"] == ["may_read"]
    assert payload["roots_affected"] is True
