"""The naive SLD resolver, kept as the engine's correctness oracle.

This is the original backward-chaining prover of :mod:`repro.policy.rules`,
preserved verbatim (linear fact scans, eager renaming, tuple-scan cycle
guard, no tabling).  It exists for one reason: to back the equivalence
harness.  The indexed, tabled engine must agree with this reference on the
**derivability verdict** of every query and must produce a well-formed
witness whenever the reference does — asserted by
``tests/policy/test_rules_engine.py`` on hand-built cases,
``tests/property/test_engine_equivalence.py`` on randomized rule sets, and
``tests/integration/test_engine_equivalence.py`` end-to-end across all four
enforcement approaches and both consistency levels.

Do not optimize this module.  Its value is being boring.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.policy.rules import (
    MAX_DEPTH,
    Atom,
    EngineCounters,
    FactBase,
    ProofNode,
    Rule,
    RuleSet,
    Substitution,
    node_substitute,
    unify,
)


class NaiveRuleSet(RuleSet):
    """A :class:`RuleSet` that proves with the original naive resolver.

    The public API is identical to :class:`RuleSet`; only the search
    strategy differs, and the by-predicate rule map it scans is its own.
    Use :func:`naive_view` to borrow an existing rule set's rules.
    """

    def __init__(self, rules: Iterable[Rule]) -> None:
        super().__init__(rules)
        self._by_head: Dict[str, List[Rule]] = {}
        for rule in self.rules:
            self._by_head.setdefault(rule.head.predicate, []).append(rule)

    def prove(
        self,
        goal: Atom,
        facts: FactBase,
        counters: Optional[EngineCounters] = None,
    ) -> Optional[ProofNode]:
        """Return a derivation of ``goal`` from ``facts``, or ``None``.

        ``counters`` is accepted for signature compatibility with the
        indexed engine and ignored — the reference does no accounting.
        """
        counter = itertools.count()
        for subst, node in self._naive_solve(goal, {}, facts, counter, depth=0, stack=()):
            return node_substitute(node, subst)
        return None

    def _naive_solve(
        self,
        goal: Atom,
        subst: Substitution,
        facts: FactBase,
        counter: Iterator[int],
        depth: int,
        stack: Tuple[Atom, ...],
    ) -> Iterator[Tuple[Substitution, ProofNode]]:
        if depth > MAX_DEPTH:
            return
        concrete = goal.substitute(subst)
        if concrete in stack:
            return  # cycle guard
        # 1. facts
        for fact, source in facts.candidates(concrete.predicate):
            extended = unify(concrete, fact, subst)
            if extended is not None:
                yield extended, ProofNode(fact, "fact", source=source)
        # 2. rules
        for rule in self._by_head.get(concrete.predicate, ()):
            fresh = rule.rename(counter)
            extended = unify(concrete, fresh.head, subst)
            if extended is None:
                continue
            for body_subst, children in self._naive_solve_body(
                fresh.body, extended, facts, counter, depth + 1, stack + (concrete,)
            ):
                head_ground = fresh.head.substitute(body_subst)
                yield body_subst, ProofNode(head_ground, "rule", tuple(children), rule=rule)

    def _naive_solve_body(
        self,
        body: Tuple[Atom, ...],
        subst: Substitution,
        facts: FactBase,
        counter: Iterator[int],
        depth: int,
        stack: Tuple[Atom, ...],
    ) -> Iterator[Tuple[Substitution, List[ProofNode]]]:
        if not body:
            yield subst, []
            return
        head_goal, rest = body[0], body[1:]
        for first_subst, first_node in self._naive_solve(
            head_goal, subst, facts, counter, depth, stack
        ):
            for rest_subst, rest_nodes in self._naive_solve_body(
                rest, first_subst, facts, counter, depth, stack
            ):
                yield rest_subst, [first_node] + rest_nodes


def naive_view(rules: RuleSet) -> NaiveRuleSet:
    """The same rules, proved by the naive reference resolver."""
    if isinstance(rules, NaiveRuleSet):
        return rules
    return NaiveRuleSet(rules.rules)
