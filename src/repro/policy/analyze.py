"""Static analysis of authorization policies (the *policy linter*).

The conformance checker (:mod:`repro.verify`) establishes that an execution
is consistent with the policies the servers held — but it cannot see that a
*policy itself* is broken.  An unsafe rule, an unstratified negation, or a
rule shadowed by a more general one silently yields wrong or vacuous
verdicts that every trace-level check happily accepts, because the trace
really is "consistent with" the broken policy.  This module closes that gap
with a pre-execution instrument: a static analyzer over the Datalog layer,
in the spirit of establishing access-control correctness at the policy
level rather than observing it at runtime.

Rule codes
----------

``POL001``  range restriction / safety: every head variable and every
            variable of a negated body literal must be bound by a positive
            body atom; facts must be ground.
``POL002``  unstratified negation: a cycle through negation in the
            predicate dependency graph (negation-as-failure is ill-defined
            on such programs).
``POL003``  dead rule: a non-fact rule whose head predicate is neither a
            query root (``may_read``/``may_write`` by default) nor
            reachable from one — it can never contribute to any access
            decision.
``POL004``  subsumed rule: a rule made redundant by a more general rule in
            the same program (θ-subsumption), including exact duplicates.
``POL005``  signature drift: a predicate used with inconsistent arities,
            or an argument position mixing numeric and symbolic constants.
``POL006``  unbounded recursion: a cycle of positive dependencies; the
            engine's depth bound and cycle guard turn it into silent
            search truncation rather than nontermination.
``POL007``  negation used at all: the runtime engine has no
            negation-as-failure, so a policy using ``not`` can be analyzed
            but not loaded by :func:`repro.policy.parser.parse_rules`.

Findings carry a precise source span (line and column from the tokenizer)
when the input is policy *text*; rule sets analyzed in memory get clause
indexes instead.  Suppression mirrors :mod:`repro.verify.lint`: append
``# analyze: ignore[POL003] -- reason`` (or a bare ``# analyze: ignore``)
to the offending clause's line.

The same predicate dependency graph also powers *policy-diff impact
analysis*: :func:`changed_predicates` and :func:`dependency_closure` let
:class:`repro.policy.proofcache.ProofCache` invalidate only the cached
proofs whose derivations could possibly be affected by a policy install —
see ``docs/policy-analysis.md``.

Run as ``python -m repro.policy.analyze [files...]``; exits 1 on
unsuppressed findings.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import re
import sys
from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.errors import PolicyError
from repro.policy.parser import Token, render_atom, tokenize
from repro.policy.policy import GUARD_PREDICATES
from repro.policy.rules import Atom, Rule, RuleSet, Term, Variable

#: Default query roots: the goal predicates access decisions are phrased in.
DEFAULT_ROOTS: Tuple[str, ...] = tuple(sorted(GUARD_PREDICATES.values()))

#: rule code -> (summary, severity).
RULES: Dict[str, Tuple[str, str]] = {
    "POL001": ("unsafe rule: unbound head or negated-body variable", "error"),
    "POL002": ("unstratified negation (cycle through a negated literal)", "error"),
    "POL003": ("dead rule: head unreachable from any query root", "warning"),
    "POL004": ("rule subsumed by a more general rule (redundant/shadowed)", "warning"),
    "POL005": ("signature drift: inconsistent arity or constant types", "error"),
    "POL006": ("unbounded recursion (positive dependency cycle)", "warning"),
    "POL007": ("negation is analysis-only: the runtime engine has no NAF", "warning"),
}

_SUPPRESS_RE = re.compile(r"#\s*analyze:\s*ignore(?:\[([A-Z0-9,\s]+)\])?")


@dataclass(frozen=True)
class Literal:
    """One body literal: an atom, possibly negated, with its source span."""

    atom: Atom
    negated: bool = False
    line: int = 0
    col: int = 0

    def __repr__(self) -> str:
        return f"not {self.atom!r}" if self.negated else repr(self.atom)


@dataclass(frozen=True)
class Clause:
    """An analyzed clause ``head :- body`` (body may be empty: a fact).

    Unlike :class:`repro.policy.rules.Rule`, construction never rejects
    unsafe clauses — detecting them is the analyzer's job — and body
    literals may be negated.
    """

    head: Atom
    body: Tuple[Literal, ...] = ()
    line: int = 0
    col: int = 0
    index: int = 0

    @property
    def is_fact(self) -> bool:
        return not self.body

    def render(self) -> str:
        if not self.body:
            return f"{render_atom(self.head)}."
        body = ", ".join(
            ("not " if lit.negated else "") + render_atom(lit.atom) for lit in self.body
        )
        return f"{render_atom(self.head)} :- {body}."


@dataclass(frozen=True)
class Finding:
    """One analyzer finding, with span and machine-readable fields."""

    code: str
    message: str
    line: int
    col: int
    clause: int
    predicate: str
    severity: str
    path: str = ""
    suppressed: bool = False

    def format(self) -> str:
        where = f"{self.path or '<policy>'}:{self.line}:{self.col}"
        marker = " (suppressed)" if self.suppressed else ""
        return f"{where}: {self.code} [{self.severity}] {self.message}{marker}"

    def to_json(self) -> Dict[str, object]:
        return {
            "code": self.code,
            "message": self.message,
            "line": self.line,
            "col": self.col,
            "clause": self.clause,
            "predicate": self.predicate,
            "severity": self.severity,
            "path": self.path,
            "suppressed": self.suppressed,
        }


# -- lenient front end -------------------------------------------------------------


class _LenientParser:
    """Recursive-descent parser producing :class:`Clause` values with spans.

    A superset of the runtime grammar: body literals may be prefixed with
    ``not``, and no safety checks are applied (the checks are the whole
    point of this module).  Mirrors :class:`repro.policy.parser._Parser`.
    """

    def __init__(self, text: str) -> None:
        self._tokens = list(tokenize(text))
        self._index = 0

    def _peek(self) -> Optional[Token]:
        if self._index < len(self._tokens):
            return self._tokens[self._index]
        return None

    def _next(self, expected: Optional[str] = None) -> Token:
        token = self._peek()
        if token is None:
            raise PolicyError(
                "policy syntax error: unexpected end of input"
                + (f" (expected {expected})" if expected else "")
            )
        if expected is not None and token.kind != expected:
            raise PolicyError(
                f"policy syntax error at line {token.line}: expected {expected}, "
                f"got {token.kind} {token.text!r}"
            )
        self._index += 1
        return token

    def parse_program(self) -> List[Clause]:
        clauses: List[Clause] = []
        while self._peek() is not None:
            clauses.append(self.parse_clause(len(clauses)))
        return clauses

    def parse_clause(self, index: int) -> Clause:
        head, line, col = self.parse_atom()
        token = self._peek()
        body: List[Literal] = []
        if token is not None and token.kind == "ARROW":
            self._next("ARROW")
            body.append(self.parse_literal())
            while self._peek() is not None and self._peek().kind == "COMMA":
                self._next("COMMA")
                body.append(self.parse_literal())
        self._next("DOT")
        return Clause(head, tuple(body), line=line, col=col, index=index)

    def parse_literal(self) -> Literal:
        token = self._peek()
        negated = False
        if (
            token is not None
            and token.kind == "NAME"
            and token.text == "not"
            and self._index + 1 < len(self._tokens)
            and self._tokens[self._index + 1].kind == "NAME"
        ):
            # ``not foo(...)`` — negation-as-failure marker.  ``not(...)``
            # still parses as an atom whose predicate is ``not``.
            self._next("NAME")
            negated = True
        atom, line, col = self.parse_atom()
        return Literal(atom, negated=negated, line=line, col=col)

    def parse_atom(self) -> Tuple[Atom, int, int]:
        name = self._next("NAME")
        if name.text[0].isupper():
            raise PolicyError(
                f"policy syntax error at line {name.line}: predicate names "
                f"must not start uppercase ({name.text!r})"
            )
        args: List[Term] = []
        token = self._peek()
        if token is not None and token.kind == "LPAREN":
            self._next("LPAREN")
            if self._peek() is not None and self._peek().kind != "RPAREN":
                args.append(self.parse_term())
                while self._peek() is not None and self._peek().kind == "COMMA":
                    self._next("COMMA")
                    args.append(self.parse_term())
            self._next("RPAREN")
        return Atom(name.text, tuple(args)), name.line, name.column

    def parse_term(self) -> Term:
        token = self._peek()
        if token is None:
            raise PolicyError("policy syntax error: unexpected end of input in term")
        if token.kind == "NUMBER":
            self._next()
            return int(token.text)
        if token.kind == "QUOTED":
            self._next()
            inner = token.text[1:-1]
            return inner.replace("\\'", "'").replace("\\\\", "\\")
        name = self._next("NAME")
        if name.text[0].isupper():
            return Variable(name.text)
        return name.text


def parse_clauses(text: str) -> List[Clause]:
    """Parse policy text into analyzer clauses (lenient grammar)."""
    return _LenientParser(text).parse_program()


def clauses_from_rules(rules: RuleSet) -> List[Clause]:
    """Analyzer clauses for an in-memory rule set (spans are clause indexes).

    Runtime rules never contain negation, so every body literal is
    positive.  ``line`` is set to the 1-based rule position so findings
    still point somewhere useful.
    """
    clauses: List[Clause] = []
    for index, rule in enumerate(rules.rules):
        body = tuple(Literal(atom, line=index + 1) for atom in rule.body)
        clauses.append(Clause(rule.head, body, line=index + 1, col=1, index=index))
    return clauses


# -- the predicate dependency graph ------------------------------------------------


class PredicateGraph:
    """Dependency graph of a policy: ``head -> body predicate`` edges.

    Edges are signed: an edge through a negated literal is *negative*.
    The graph answers the three questions the analyzer and the proof
    cache's impact analysis need: downward reachability (which predicates
    a proof of ``p`` may consult), strongly connected components (cycles,
    for POL002/POL006), and which predicates are intensionally defined.
    """

    def __init__(self, clauses: Sequence[Clause]) -> None:
        self.clauses = tuple(clauses)
        #: head predicate -> set of positive body predicates.
        self.pos_edges: Dict[str, Set[str]] = {}
        #: head predicate -> set of negated body predicates.
        self.neg_edges: Dict[str, Set[str]] = {}
        #: predicates appearing as a clause head (intensional + facts).
        self.defined: Set[str] = set()
        #: every predicate mentioned anywhere.
        self.predicates: Set[str] = set()
        for clause in clauses:
            head = clause.head.predicate
            self.defined.add(head)
            self.predicates.add(head)
            for literal in clause.body:
                target = literal.atom.predicate
                self.predicates.add(target)
                bucket = self.neg_edges if literal.negated else self.pos_edges
                bucket.setdefault(head, set()).add(target)

    def successors(self, predicate: str, *, positive_only: bool = False) -> Set[str]:
        out = set(self.pos_edges.get(predicate, ()))
        if not positive_only:
            out |= self.neg_edges.get(predicate, set())
        return out

    def reachable_from(
        self, roots: Iterable[str], *, positive_only: bool = False
    ) -> Set[str]:
        """Downward closure: predicates a proof of any root may consult."""
        seen: Set[str] = set()
        stack = list(roots)
        while stack:
            predicate = stack.pop()
            if predicate in seen:
                continue
            seen.add(predicate)
            stack.extend(self.successors(predicate, positive_only=positive_only))
        return seen

    def dependents_of(self, changed: Iterable[str]) -> Set[str]:
        """Upward closure: predicates whose proofs may consult ``changed``."""
        targets = set(changed)
        # Invert the edge relation once, then walk upward.
        inverse: Dict[str, Set[str]] = {}
        for head in sorted(set(self.pos_edges) | set(self.neg_edges)):
            for target in self.successors(head):
                inverse.setdefault(target, set()).add(head)
        seen: Set[str] = set(targets)
        stack = list(targets)
        while stack:
            predicate = stack.pop()
            for dependent in inverse.get(predicate, ()):
                if dependent not in seen:
                    seen.add(dependent)
                    stack.append(dependent)
        return seen

    def sccs(self, *, positive_only: bool = False) -> List[Set[str]]:
        """Strongly connected components (iterative Tarjan, sorted nodes)."""
        index_of: Dict[str, int] = {}
        lowlink: Dict[str, int] = {}
        on_stack: Set[str] = set()
        stack: List[str] = []
        components: List[Set[str]] = []
        counter = [0]

        def strongconnect(root: str) -> None:
            work: List[Tuple[str, List[str]]] = [
                (root, sorted(self.successors(root, positive_only=positive_only)))
            ]
            index_of[root] = lowlink[root] = counter[0]
            counter[0] += 1
            stack.append(root)
            on_stack.add(root)
            while work:
                node, successors = work[-1]
                if successors:
                    nxt = successors.pop(0)
                    if nxt not in index_of:
                        index_of[nxt] = lowlink[nxt] = counter[0]
                        counter[0] += 1
                        stack.append(nxt)
                        on_stack.add(nxt)
                        work.append(
                            (nxt, sorted(self.successors(nxt, positive_only=positive_only)))
                        )
                    elif nxt in on_stack:
                        lowlink[node] = min(lowlink[node], index_of[nxt])
                else:
                    work.pop()
                    if work:
                        parent = work[-1][0]
                        lowlink[parent] = min(lowlink[parent], lowlink[node])
                    if lowlink[node] == index_of[node]:
                        component: Set[str] = set()
                        while True:
                            member = stack.pop()
                            on_stack.discard(member)
                            component.add(member)
                            if member == node:
                                break
                        components.append(component)

        for predicate in sorted(self.predicates):
            if predicate not in index_of:
                strongconnect(predicate)
        return components

    def _has_edge(self, source: str, target: str, *, positive_only: bool) -> bool:
        if target in self.pos_edges.get(source, ()):
            return True
        return not positive_only and target in self.neg_edges.get(source, ())

    def cyclic_predicates(self, *, positive_only: bool = False) -> Set[str]:
        """Predicates on some dependency cycle (incl. self-loops)."""
        cyclic: Set[str] = set()
        for component in self.sccs(positive_only=positive_only):
            if len(component) > 1:
                cyclic |= component
            else:
                (only,) = component
                if self._has_edge(only, only, positive_only=positive_only):
                    cyclic.add(only)
        return cyclic


# -- the checks --------------------------------------------------------------------


def _atom_variables(atom: Atom) -> Set[Variable]:
    return {arg for arg in atom.args if isinstance(arg, Variable)}


def _check_safety(clause: Clause) -> List[Tuple[str, str, int, int]]:
    """POL001: range restriction for heads and negated literals."""
    out: List[Tuple[str, str, int, int]] = []
    positive_vars: Set[Variable] = set()
    for literal in clause.body:
        if not literal.negated:
            positive_vars |= _atom_variables(literal.atom)
    head_vars = _atom_variables(clause.head)
    if clause.is_fact:
        for variable in sorted(head_vars, key=lambda v: v.name):
            out.append(
                (
                    "POL001",
                    f"fact {clause.head!r} has unbound variable {variable.name} "
                    "(facts must be ground)",
                    clause.line,
                    clause.col,
                )
            )
        return out
    for variable in sorted(head_vars - positive_vars, key=lambda v: v.name):
        out.append(
            (
                "POL001",
                f"head variable {variable.name} of {clause.head!r} is not bound "
                "by any positive body atom",
                clause.line,
                clause.col,
            )
        )
    for literal in clause.body:
        if not literal.negated:
            continue
        for variable in sorted(
            _atom_variables(literal.atom) - positive_vars, key=lambda v: v.name
        ):
            out.append(
                (
                    "POL001",
                    f"variable {variable.name} of negated literal "
                    f"not {literal.atom!r} is not bound by any positive body "
                    "atom (the negation would flounder)",
                    literal.line or clause.line,
                    literal.col or clause.col,
                )
            )
    return out


def _match_term(pattern: Term, target: Term, binding: Dict[Variable, Term]) -> bool:
    """One-way matching: variables of ``pattern`` bind, ``target`` is frozen."""
    if isinstance(pattern, Variable):
        bound = binding.get(pattern)
        if bound is None:
            binding[pattern] = target
            return True
        return bound == target
    return pattern == target


def _match_atom(pattern: Atom, target: Atom, binding: Dict[Variable, Term]) -> bool:
    if pattern.predicate != target.predicate or len(pattern.args) != len(target.args):
        return False
    trail = dict(binding)
    for p_arg, t_arg in zip(pattern.args, target.args):
        if not _match_term(p_arg, t_arg, trail):
            return False
    binding.clear()
    binding.update(trail)
    return True


def _subsumes(general: Clause, specific: Clause) -> bool:
    """θ-subsumption: is ``specific`` redundant given ``general``?

    True when some substitution θ over ``general``'s variables maps its
    head onto ``specific``'s head and every body literal of ``general``·θ
    onto some body literal of ``specific`` (sign-matching).  ``specific``'s
    variables are frozen — they act as constants during matching.
    """

    def match_body(index: int, binding: Dict[Variable, Term]) -> bool:
        if index == len(general.body):
            return True
        literal = general.body[index]
        for candidate in specific.body:
            if candidate.negated != literal.negated:
                continue
            trail = dict(binding)
            if _match_atom(literal.atom, candidate.atom, trail) and match_body(
                index + 1, trail
            ):
                binding.clear()
                binding.update(trail)
                return True
        return False

    binding: Dict[Variable, Term] = {}
    if not _match_atom(general.head, specific.head, binding):
        return False
    return match_body(0, binding)


class Analysis:
    """One analysis pass over a clause list.  Use :func:`analyze_text` or
    :func:`analyze_rules` rather than instantiating directly."""

    def __init__(
        self,
        clauses: Sequence[Clause],
        *,
        roots: Sequence[str] = DEFAULT_ROOTS,
        path: str = "",
    ) -> None:
        self.clauses = list(clauses)
        self.roots = tuple(roots)
        self.path = path
        self.graph = PredicateGraph(self.clauses)
        self.findings: List[Finding] = []

    def _emit(
        self, code: str, message: str, line: int, col: int, clause: Clause
    ) -> None:
        self.findings.append(
            Finding(
                code=code,
                message=message,
                line=line,
                col=col,
                clause=clause.index,
                predicate=clause.head.predicate,
                severity=RULES[code][1],
                path=self.path,
            )
        )

    def run(self) -> List[Finding]:
        self._check_pol001()
        self._check_pol002()
        self._check_pol003()
        self._check_pol004()
        self._check_pol005()
        self._check_pol006()
        self._check_pol007()
        self.findings.sort(key=lambda f: (f.line, f.col, f.code, f.message))
        return self.findings

    def _check_pol001(self) -> None:
        for clause in self.clauses:
            for code, message, line, col in _check_safety(clause):
                self._emit(code, message, line, col, clause)

    def _check_pol002(self) -> None:
        scc_of: Dict[str, int] = {}
        for number, component in enumerate(self.graph.sccs()):
            for predicate in component:
                scc_of[predicate] = number
        for clause in self.clauses:
            head = clause.head.predicate
            for literal in clause.body:
                if not literal.negated:
                    continue
                target = literal.atom.predicate
                if scc_of.get(head) == scc_of.get(target) and scc_of.get(head) is not None:
                    self._emit(
                        "POL002",
                        f"negated literal not {literal.atom!r} closes a cycle "
                        f"through negation ({head} and {target} are mutually "
                        "recursive); the program is not stratifiable",
                        literal.line or clause.line,
                        literal.col or clause.col,
                        clause,
                    )

    def _check_pol003(self) -> None:
        live = self.graph.reachable_from(self.roots)
        for clause in self.clauses:
            if clause.is_fact:
                # Ground facts double as data/markers (e.g. version-churn
                # markers); being unreferenced is not suspicious.
                continue
            head = clause.head.predicate
            if head not in live:
                self._emit(
                    "POL003",
                    f"rule for {head!r} is dead: not reachable from any query "
                    f"root ({', '.join(self.roots)})",
                    clause.line,
                    clause.col,
                    clause,
                )

    def _check_pol004(self) -> None:
        for clause in self.clauses:
            for other in self.clauses:
                if other.index == clause.index:
                    continue
                if not _subsumes(other, clause):
                    continue
                # Mutual subsumption = duplicates; flag only the later copy.
                if _subsumes(clause, other) and other.index > clause.index:
                    continue
                kind = (
                    "duplicates" if _subsumes(clause, other) else "is subsumed by"
                )
                self._emit(
                    "POL004",
                    f"clause {clause.render()!r} {kind} more general clause "
                    f"#{other.index + 1} {other.render()!r} and can never "
                    "contribute a new derivation",
                    clause.line,
                    clause.col,
                    clause,
                )
                break

    def _check_pol005(self) -> None:
        arity_site: Dict[Tuple[str, int], Clause] = {}
        type_site: Dict[Tuple[str, int, type], Clause] = {}
        for clause in self.clauses:
            atoms = [(clause.head, clause.line, clause.col)] + [
                (lit.atom, lit.line or clause.line, lit.col or clause.col)
                for lit in clause.body
            ]
            for atom, line, col in atoms:
                key = (atom.predicate, len(atom.args))
                arity_site.setdefault(key, clause)
                others = [
                    (pred, arity)
                    for (pred, arity) in arity_site
                    if pred == atom.predicate and arity != len(atom.args)
                ]
                if others:
                    first_pred, first_arity = min(others, key=lambda pair: pair[1])
                    first = arity_site[(first_pred, first_arity)]
                    self._emit(
                        "POL005",
                        f"{atom.predicate!r} used with arity {len(atom.args)} "
                        f"here but arity {first_arity} at clause "
                        f"#{first.index + 1} ({first.render()!r})",
                        line,
                        col,
                        clause,
                    )
                for position, arg in enumerate(atom.args):
                    if isinstance(arg, Variable):
                        continue
                    type_key = (atom.predicate, position, type(arg))
                    type_site.setdefault(type_key, clause)
                    clash_type = int if isinstance(arg, str) else str
                    clash = type_site.get((atom.predicate, position, clash_type))
                    if clash is not None:
                        self._emit(
                            "POL005",
                            f"argument {position + 1} of {atom.predicate!r} "
                            f"mixes {type(arg).__name__} constant {arg!r} with "
                            f"{clash_type.__name__} constants (clause "
                            f"#{clash.index + 1})",
                            line,
                            col,
                            clause,
                        )

    def _check_pol006(self) -> None:
        cyclic = self.graph.cyclic_predicates(positive_only=True)
        scc_of: Dict[str, int] = {}
        for number, component in enumerate(self.graph.sccs(positive_only=True)):
            for predicate in component:
                scc_of[predicate] = number
        for clause in self.clauses:
            head = clause.head.predicate
            if head not in cyclic:
                continue
            for literal in clause.body:
                target = literal.atom.predicate
                same_cycle = scc_of.get(target) == scc_of.get(head) or target == head
                if not literal.negated and target in cyclic and same_cycle:
                    self._emit(
                        "POL006",
                        f"{head!r} is recursive through {target!r}; the engine "
                        "bounds recursion (MAX_DEPTH + cycle guard), so deep "
                        "instances are silently truncated rather than proved",
                        literal.line or clause.line,
                        literal.col or clause.col,
                        clause,
                    )
                    break

    def _check_pol007(self) -> None:
        for clause in self.clauses:
            for literal in clause.body:
                if literal.negated:
                    self._emit(
                        "POL007",
                        f"not {literal.atom!r}: negation is an analysis-level "
                        "extension; the runtime engine cannot load this policy",
                        literal.line or clause.line,
                        literal.col or clause.col,
                        clause,
                    )


@dataclass(frozen=True)
class AnalysisReport:
    """All findings of one analysis, plus the graph that produced them."""

    findings: Tuple[Finding, ...]
    clause_count: int
    path: str = ""

    @property
    def active(self) -> Tuple[Finding, ...]:
        return tuple(f for f in self.findings if not f.suppressed)

    @property
    def errors(self) -> Tuple[Finding, ...]:
        return tuple(f for f in self.active if f.severity == "error")

    @property
    def warnings(self) -> Tuple[Finding, ...]:
        return tuple(f for f in self.active if f.severity == "warning")

    @property
    def ok(self) -> bool:
        """No unsuppressed findings of any severity."""
        return not self.active

    def codes(self) -> Tuple[str, ...]:
        return tuple(f.code for f in self.active)

    def to_json(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "clauses": self.clause_count,
            "ok": self.ok,
            "findings": [f.to_json() for f in self.findings],
            "counts": {
                "errors": len(self.errors),
                "warnings": len(self.warnings),
                "suppressed": sum(1 for f in self.findings if f.suppressed),
            },
        }

    def format(self) -> str:
        lines = [f.format() for f in self.active]
        lines.append(
            f"repro.policy.analyze: {self.path or '<policy>'}: "
            f"{len(self.errors)} error(s), {len(self.warnings)} warning(s), "
            f"{sum(1 for f in self.findings if f.suppressed)} suppressed "
            f"over {self.clause_count} clause(s)"
        )
        return "\n".join(lines)


def _suppressions_for(source_lines: Sequence[str], line: int) -> Optional[Set[str]]:
    """Codes suppressed on ``line`` (empty set = all), or None."""
    if not 1 <= line <= len(source_lines):
        return None
    match = _SUPPRESS_RE.search(source_lines[line - 1])
    if match is None:
        return None
    if match.group(1) is None:
        return set()
    return {code.strip() for code in match.group(1).split(",") if code.strip()}


def analyze_clauses(
    clauses: Sequence[Clause],
    *,
    roots: Sequence[str] = DEFAULT_ROOTS,
    path: str = "",
    source: Optional[str] = None,
) -> AnalysisReport:
    """Analyze pre-parsed clauses; ``source`` enables line suppressions."""
    findings = Analysis(clauses, roots=roots, path=path).run()
    if source is not None:
        lines = source.splitlines()
        resolved = []
        for finding in findings:
            codes = _suppressions_for(lines, finding.line)
            suppressed = codes is not None and (not codes or finding.code in codes)
            resolved.append(
                Finding(
                    finding.code, finding.message, finding.line, finding.col,
                    finding.clause, finding.predicate, finding.severity,
                    path=finding.path, suppressed=suppressed,
                )
            )
        findings = resolved
    return AnalysisReport(tuple(findings), clause_count=len(clauses), path=path)


def analyze_text(
    text: str, *, roots: Sequence[str] = DEFAULT_ROOTS, path: str = ""
) -> AnalysisReport:
    """Analyze a textual policy program (spans + ``# analyze: ignore``)."""
    clauses = parse_clauses(text)
    return analyze_clauses(clauses, roots=roots, path=path, source=text)


def analyze_rules(
    rules: RuleSet, *, roots: Sequence[str] = DEFAULT_ROOTS, path: str = ""
) -> AnalysisReport:
    """Analyze an in-memory :class:`RuleSet` (no suppressions, index spans)."""
    return analyze_clauses(clauses_from_rules(rules), roots=roots, path=path)


# -- policy-diff impact analysis ---------------------------------------------------


class HeldRules:
    """The rules of the version a policy holder holds, as one set it moves.

    A holder that installs version after version keeps one of these and
    hands it to :func:`changed_predicates`: an install that appends to the
    held rules costs its tail, and no version owns a set of its own.
    """

    __slots__ = ("rules", "distinct")

    def __init__(self) -> None:
        self.rules: Tuple[Rule, ...] = ()
        self.distinct: Set[Rule] = set()

    def advance(self, old: RuleSet, new: RuleSet) -> FrozenSet[str]:
        """Head predicates of the rules in one of ``old``/``new`` only; then hold ``new``."""
        if self.rules is not old.rules:  # the holder moved without telling us
            self.rules, self.distinct = old.rules, set(old.rules)
        held, incoming = self.rules, new.rules
        if incoming[: len(held)] == held:  # shared rules compare by identity
            changed = set(incoming[len(held):]).difference(self.distinct)
            self.distinct.update(changed)
        else:
            distinct = set(incoming)
            changed = distinct.symmetric_difference(self.distinct)
            self.distinct = distinct
        self.rules = incoming
        return frozenset(rule.head.predicate for rule in changed)


def changed_predicates(old: RuleSet, new: RuleSet, held: Optional[HeldRules] = None) -> FrozenSet[str]:
    """Head predicates of every rule added, removed, or modified.

    The rule level is the right granularity: a rule that appears verbatim
    in both versions cannot change any derivation it participates in, and
    a predicate none of whose defining rules changed derives exactly the
    same atoms from any fixed fact base.

    A pure function of the two rule sets.  A caller that diffs each version
    it installs against the one it held passes its :class:`HeldRules`: same
    answer, at the cost of what ``new`` appends to ``old`` (of both full
    sets for any other change, or if ``held`` is not for ``old`` after all).
    """
    if old is new:
        return frozenset()
    return (HeldRules() if held is None else held).advance(old, new)


def dependency_closure(rules: RuleSet, goals: Iterable[str]) -> FrozenSet[str]:
    """Every predicate a proof of any ``goals`` predicate may consult.

    The downward closure over the rule graph, including extensional
    (credential-supplied) predicates and the goals themselves.  A proof's
    verdict is a function of exactly these predicates' rules plus the fact
    base, so a policy diff touching none of them provably cannot change
    the verdict — the soundness argument behind predicate-precise cache
    invalidation (see docs/policy-analysis.md).
    """
    graph = PredicateGraph(clauses_from_rules(rules))
    return frozenset(graph.reachable_from(tuple(goals)))


@dataclass(frozen=True)
class ImpactReport:
    """What a policy diff can affect, for displays and the cache hook."""

    changed: FrozenSet[str]
    #: Predicates whose proofs may consult a changed predicate (computed
    #: on the old version's graph — see docs/policy-analysis.md for why
    #: the old graph suffices).
    affected: FrozenSet[str]
    #: Whether any default query root is affected.
    roots_affected: bool


def diff_impact(
    old: RuleSet, new: RuleSet, *, roots: Sequence[str] = DEFAULT_ROOTS
) -> ImpactReport:
    """Impact analysis between two policy versions."""
    changed = changed_predicates(old, new)
    graph = PredicateGraph(clauses_from_rules(old))
    affected = frozenset(graph.dependents_of(changed))
    return ImpactReport(
        changed=changed,
        affected=affected,
        roots_affected=any(root in affected for root in roots),
    )


# -- in-tree policies (the CI surface) --------------------------------------------


def intree_policies() -> List[Tuple[str, RuleSet]]:
    """Every canned policy the repo ships, as (label, rules) pairs.

    Covers the testbed's member policy, the Fig. 1 CompuMe scenario
    policies, and both kinds of update successors the policy-storm
    workloads publish — the full set of rule programs a simulation can
    install.  (The textual example policies in ``examples/`` are covered
    by ``tests/policy/test_analyze.py``, which imports the example files.)
    """
    from repro.policy.policy import Policy, PolicyId
    from repro.workloads.scenarios import compume_policy_v1, compume_policy_v2
    from repro.workloads.testbed import member_policy_rules
    from repro.workloads.updates import benign_successor, restricting_successor

    member = member_policy_rules(["inventory", "ledger"])
    compume_items = ("customers/acme", "inventory/laptops")
    base = Policy(PolicyId("app"), 1, member)
    out: List[Tuple[str, RuleSet]] = [
        ("testbed.member_policy_rules", member),
        ("scenarios.compume_policy_v1", compume_policy_v1(compume_items)),
        ("scenarios.compume_policy_v2", compume_policy_v2(compume_items)),
        ("updates.benign_successor", benign_successor(base)),
        ("updates.restricting_successor", restricting_successor(base, "auditor")),
    ]
    return out


# -- CLI ---------------------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.policy.analyze",
        description="Static analyzer for Datalog authorization policies.",
    )
    parser.add_argument(
        "paths", nargs="*", type=pathlib.Path,
        help="policy text files to analyze",
    )
    parser.add_argument(
        "--intree", action="store_true",
        help="analyze every canned policy the repo ships (the CI gate)",
    )
    parser.add_argument(
        "--roots", default=",".join(DEFAULT_ROOTS),
        help="comma-separated query root predicates",
    )
    parser.add_argument(
        "--diff", nargs=2, metavar=("OLD", "NEW"), type=pathlib.Path,
        help="impact analysis between two policy files instead of linting",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.add_argument(
        "--list-rules", action="store_true", help="print every rule and exit"
    )
    args = parser.parse_args(argv)
    roots = tuple(r.strip() for r in args.roots.split(",") if r.strip())

    if args.list_rules:
        for code in sorted(RULES):
            summary, severity = RULES[code]
            print(f"{code} [{severity}]: {summary}")
        return 0

    if args.diff:
        from repro.errors import PolicyError
        from repro.policy.parser import parse_rules

        # --diff feeds the *runtime* parser: impact analysis only makes
        # sense between versions the simulator could actually install.
        # A file the runtime rejects gets a diagnostic, not a traceback
        # (lint it without --diff to find out why).
        try:
            old_path, new_path = args.diff
            old = parse_rules(old_path.read_text(encoding="utf-8"))
            new = parse_rules(new_path.read_text(encoding="utf-8"))
        except PolicyError as exc:
            print(f"repro.policy.analyze: --diff: not runtime-loadable: {exc}", file=sys.stderr)
            return 2
        impact = diff_impact(old, new, roots=roots)
        payload = {
            "old": str(old_path),
            "new": str(new_path),
            "changed": sorted(impact.changed),
            "affected": sorted(impact.affected),
            "roots_affected": impact.roots_affected,
        }
        if args.json:
            print(json.dumps(payload, indent=2))
        else:
            print(f"changed predicates : {', '.join(sorted(impact.changed)) or '(none)'}")
            print(f"affected closure   : {', '.join(sorted(impact.affected)) or '(none)'}")
            print(f"query roots hit    : {'yes' if impact.roots_affected else 'no'}")
        return 0

    reports: List[AnalysisReport] = []
    for path in args.paths:
        text = path.read_text(encoding="utf-8")
        reports.append(analyze_text(text, roots=roots, path=str(path)))
    if args.intree:
        for label, rules in intree_policies():
            reports.append(analyze_rules(rules, roots=roots, path=label))
    if not reports:
        parser.error("nothing to analyze: pass policy files and/or --intree")

    if args.json:
        print(json.dumps([report.to_json() for report in reports], indent=2))
    else:
        for report in reports:
            print(report.format())
    return 1 if any(not report.ok for report in reports) else 0


if __name__ == "__main__":
    sys.exit(main())
