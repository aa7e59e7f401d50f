"""Datalog-style inference rules with proof-tree construction.

The paper models an authorization policy as "a set of inference rules that
are encoded by policy makers" where "if the inference rules of the policy can
be satisfied using the user credentials, then the proof of authorization is
said to be valid" (Section III-A).  This module provides exactly that: atoms,
Horn rules, and a backward-chaining solver that returns the derivation tree
(the *proof*) justifying an access decision.

The solver is the **indexed, tabled engine** — the innermost loop of every
enforcement approach (Deferred/Punctual/Continuous all funnel through
``prove``, see Table I).  It differs from a textbook SLD resolver in four
ways, none of which changes any derivability verdict:

* **Argument indexing.**  :class:`FactBase` indexes ground facts by
  ``(predicate, first argument)`` and keeps an exact-match table, so a
  ground subgoal resolves against facts in O(1) instead of scanning the
  predicate's extension.  :class:`RuleSet` indexes rules by head functor +
  arity and, within that, by a ground first head argument — policies that
  enumerate their domain as ground unit rules (the common
  ``item(k).``-style encoding) stop paying a linear scan per subgoal.
* **Pre-filtering before renaming.**  A rule head is matched against the
  concrete goal's ground arguments *before* variables are renamed apart;
  rules that cannot unify are skipped without allocating anything, and
  variable-free rules are applied with no renaming at all.
* **Goal tabling.**  Within one ``prove()`` call, solved ground subgoals
  are memoized (goal → grounded proof subtree) and exhaustively-failed
  ground subgoals are negatively tabled, so shared subgoals are explored
  once.  The table's scope is a single ``prove()`` call, which is what
  makes it trivially sound: facts and rules cannot change mid-call (see
  ``docs/performance.md`` for the full argument).
* **Set-based cycle guard.**  The proof stack is a persistent frozenset
  with O(1) membership instead of the previous O(depth) tuple scan.

The original naive resolver is preserved verbatim as the test oracle
``tests/policy/rules_oracle.py``; the equivalence harness (unit, property
and end-to-end tests) asserts both agree on derivability and produce
well-formed witnesses on every query.

Example
-------
>>> X, R = Variable("X"), Variable("R")
>>> rules = RuleSet([
...     Rule(Atom("may_read", (X, "customers")),
...          (Atom("sales_rep", (X,)),
...           Atom("assigned_region", (X, R)),
...           Atom("located_in", (X, R)))),
... ])
>>> facts = FactBase()
>>> for fact in [Atom("sales_rep", ("bob",)),
...              Atom("assigned_region", ("bob", "east")),
...              Atom("located_in", ("bob", "east"))]:
...     facts.add(fact, source="cred")
>>> proof = rules.prove(Atom("may_read", ("bob", "customers")), facts)
>>> proof is not None
True
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.errors import PolicyError

#: Maximum recursion depth of the backward-chaining solver.  Policies in the
#: paper's setting are tiny; the limit exists to turn accidental cycles in
#: hand-written rule sets into clean failures instead of hangs.
MAX_DEPTH = 64


@dataclass(frozen=True)
class Variable:
    """A logic variable (distinct from string constants)."""

    name: str

    def __repr__(self) -> str:
        return f"?{self.name}"


Term = Union[str, int, Variable]
Substitution = Dict[Variable, Term]


@dataclass(frozen=True)
class Atom:
    """A predicate applied to terms, e.g. ``may_read(bob, customers)``."""

    predicate: str
    args: Tuple[Term, ...] = ()

    def __post_init__(self) -> None:
        if not self.predicate:
            raise PolicyError("atom predicate must be a non-empty string")
        object.__setattr__(self, "args", tuple(self.args))

    @property
    def is_ground(self) -> bool:
        """Whether the atom contains no variables."""
        return not any(isinstance(arg, Variable) for arg in self.args)

    def substitute(self, subst: Substitution) -> "Atom":
        """Apply a substitution to every variable argument."""
        if not subst:
            return self
        return Atom(
            self.predicate,
            tuple(_walk(arg, subst) for arg in self.args),
        )

    def __repr__(self) -> str:
        inner = ", ".join(repr(arg) if isinstance(arg, Variable) else str(arg) for arg in self.args)
        return f"{self.predicate}({inner})"


def _fast_atom(predicate: str, args: Tuple[Term, ...]) -> Atom:
    """Internal Atom constructor bypassing validation (hot path only).

    Callers guarantee ``predicate`` is non-empty and ``args`` is already a
    tuple — exactly what ``__post_init__`` would have enforced.
    """
    atom = object.__new__(Atom)
    object.__setattr__(atom, "predicate", predicate)
    object.__setattr__(atom, "args", args)
    return atom


def _walk(term: Term, subst: Substitution) -> Term:
    """Chase a variable through the substitution until a non-var or free var."""
    while isinstance(term, Variable) and term in subst:
        term = subst[term]
    return term


def unify(left: Atom, right: Atom, subst: Substitution) -> Optional[Substitution]:
    """Unify two atoms under ``subst``; return the extended substitution.

    Returns ``None`` when unification fails.  The input substitution is not
    mutated.
    """
    if left.predicate != right.predicate or len(left.args) != len(right.args):
        return None
    out = dict(subst)
    for a, b in zip(left.args, right.args):
        a, b = _walk(a, out), _walk(b, out)
        if a == b:
            continue
        if isinstance(a, Variable):
            out[a] = b
        elif isinstance(b, Variable):
            out[b] = a
        else:
            return None
    return out


@dataclass(frozen=True)
class Rule:
    """A Horn rule ``head :- body``.  An empty body makes the rule a fact."""

    head: Atom
    body: Tuple[Atom, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "body", tuple(self.body))
        head_vars = {arg for arg in self.head.args if isinstance(arg, Variable)}
        body_vars = {
            arg for atom in self.body for arg in atom.args if isinstance(arg, Variable)
        }
        unsafe = head_vars - body_vars
        if self.body and unsafe:
            # Range restriction is what makes proofs finite & auditable.
            raise PolicyError(f"unsafe head variables {sorted(v.name for v in unsafe)} in {self}")

    def variables(self) -> Tuple[Variable, ...]:
        """Distinct variables of the rule, in first-occurrence order."""
        seen: List[Variable] = []
        for atom in (self.head,) + self.body:
            for arg in atom.args:
                if isinstance(arg, Variable) and arg not in seen:
                    seen.append(arg)
        return tuple(seen)

    def rename(self, counter: Iterator[int]) -> "Rule":
        """Return a copy with variables renamed apart (for unification)."""
        mapping: Dict[Variable, Variable] = {}

        def fresh(term: Term) -> Term:
            if not isinstance(term, Variable):
                return term
            if term not in mapping:
                mapping[term] = Variable(f"{term.name}~{next(counter)}")
            return mapping[term]

        head = Atom(self.head.predicate, tuple(fresh(arg) for arg in self.head.args))
        body = tuple(
            Atom(atom.predicate, tuple(fresh(arg) for arg in atom.args)) for atom in self.body
        )
        return Rule(head, body)

    def __repr__(self) -> str:
        if not self.body:
            return f"{self.head}."
        return f"{self.head} :- {', '.join(map(repr, self.body))}"


@dataclass(frozen=True)
class ProofNode:
    """One step of a derivation: an established ground atom and its support.

    ``justification`` is ``"fact"`` for leaves (supported by ``source``, the
    identifier of the credential contributing the fact) and ``"rule"`` for
    internal nodes derived through ``rule`` from ``children``.
    """

    atom: Atom
    justification: str
    children: Tuple["ProofNode", ...] = ()
    rule: Optional[Rule] = None
    source: Optional[str] = None

    def leaves(self) -> List["ProofNode"]:
        """All fact leaves of the derivation (the credentials used)."""
        if self.justification == "fact":
            return [self]
        out: List[ProofNode] = []
        for child in self.children:
            out.extend(child.leaves())
        return out

    def sources(self) -> Tuple[str, ...]:
        """Identifiers of the credentials supporting this derivation."""
        return tuple(leaf.source for leaf in self.leaves() if leaf.source is not None)

    def size(self) -> int:
        """Number of nodes in the derivation tree."""
        return 1 + sum(child.size() for child in self.children)

    def explain(self, indent: int = 0) -> str:
        """Human-readable derivation tree, for authorization audit trails.

        ::

            may_read(bob, customers)                    [rule]
              sales_rep(bob)                            [credential ca/c1]
              assigned_region(bob, east)                [credential ca/c2]
              located_in(bob, east)                     [credential ca/c3]
        """
        pad = "  " * indent
        if self.justification == "fact":
            source = f"credential {self.source}" if self.source else "fact"
            lines = [f"{pad}{self.atom!r}  [{source}]"]
        else:
            lines = [f"{pad}{self.atom!r}  [rule]"]
        for child in self.children:
            lines.append(child.explain(indent + 1))
        return "\n".join(lines)


class EngineCounters:
    """Work counters of the inference engine (host-side accounting only).

    Incremented by :meth:`RuleSet.prove` when passed in; surfaced through
    :class:`repro.metrics.counters.Metrics.engine` and rendered by
    :func:`repro.metrics.report.format_counters_report`.  Purely
    observational — the counters never influence the search.
    """

    __slots__ = (
        "proofs",
        "facts_scanned",
        "rules_tried",
        "rules_prefiltered",
        "table_hits",
        "renames_avoided",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        #: ``prove()`` calls.
        self.proofs = 0
        #: Fact candidates inspected (after indexing narrowed them).
        self.facts_scanned = 0
        #: Rule candidates actually unified against a goal.
        self.rules_tried = 0
        #: Rule candidates rejected by the pre-rename head filter.
        self.rules_prefiltered = 0
        #: Ground subgoals answered from the per-prove table.
        self.table_hits = 0
        #: Rule applications that skipped variable renaming entirely.
        self.renames_avoided = 0

    def merge(self, other: "EngineCounters") -> None:
        """Accumulate another counter set into this one."""
        for name in self.__slots__:
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def snapshot(self) -> Dict[str, int]:
        """Counter name → value, for reports and JSON export."""
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}={getattr(self, name)}" for name in self.__slots__)
        return f"EngineCounters({inner})"


#: Sentinel distinguishing "no fact found" from a fact with ``source=None``.
_MISSING = object()


class FactBase:
    """Ground facts, each tagged with the credential that asserted it.

    Facts are indexed three ways: by predicate (full extension, used when a
    goal's first argument is a variable), by ``(predicate, first argument)``
    (used when the first argument is ground), and by the exact atom (O(1)
    resolution of fully ground subgoals — the overwhelmingly common case in
    authorization proofs, where goals arrive ground from the query).
    """

    def __init__(self) -> None:
        self._by_predicate: Dict[str, List[Tuple[Atom, Optional[str]]]] = {}
        self._by_first_arg: Dict[Tuple[str, Term], List[Tuple[Atom, Optional[str]]]] = {}
        self._exact: Dict[Atom, Optional[str]] = {}

    def add(self, fact: Atom, source: Optional[str] = None) -> None:
        """Insert a ground fact (``source`` is typically a credential id)."""
        if not fact.is_ground:
            raise PolicyError(f"facts must be ground, got {fact!r}")
        entry = (fact, source)
        self._by_predicate.setdefault(fact.predicate, []).append(entry)
        if fact.args:
            self._by_first_arg.setdefault((fact.predicate, fact.args[0]), []).append(entry)
        # First insertion wins, matching the naive resolver's candidate order.
        if fact not in self._exact:
            self._exact[fact] = source

    def candidates(self, predicate: str) -> Sequence[Tuple[Atom, Optional[str]]]:
        """All facts with the given predicate."""
        return self._by_predicate.get(predicate, ())

    def candidates_for(self, goal: Atom) -> Sequence[Tuple[Atom, Optional[str]]]:
        """Facts that could unify with ``goal``, narrowed by the indexes.

        When the goal's first argument is ground only the matching
        ``(predicate, first-arg)`` bucket is returned; otherwise the full
        predicate extension.  Always a superset of the unifiable facts, in
        insertion order.
        """
        if goal.args and not isinstance(goal.args[0], Variable):
            return self._by_first_arg.get((goal.predicate, goal.args[0]), ())
        return self._by_predicate.get(goal.predicate, ())

    def match_ground(self, goal: Atom) -> object:
        """Exact-match lookup for a fully ground goal.

        Returns the first-asserted source (possibly ``None``) when the fact
        is present, or the module sentinel when absent — callers compare
        against ``rules._MISSING``.
        """
        return self._exact.get(goal, _MISSING)

    def __len__(self) -> int:
        return sum(len(v) for v in self._by_predicate.values())

    def __contains__(self, fact: Atom) -> bool:
        return fact in self._exact


class _IndexedRule:
    """A rule plus everything precomputed for fast candidate selection."""

    __slots__ = ("position", "rule", "head", "body", "variables", "ground_head_args")

    def __init__(self, position: int, rule: Rule) -> None:
        self.position = position
        self.rule = rule
        self.head = rule.head
        self.body = rule.body
        self.variables = rule.variables()
        #: (index, value) pairs of the head's ground arguments — the
        #: pre-rename filter compares these against the concrete goal.
        self.ground_head_args: Tuple[Tuple[int, Term], ...] = tuple(
            (index, arg)
            for index, arg in enumerate(rule.head.args)
            if not isinstance(arg, Variable)
        )


#: (predicate, arity) → rules whose head's first argument is a variable (or
#: the head is nullary): candidates for *every* goal of that functor.
_HeadOpen = Dict[Tuple[str, int], List[_IndexedRule]]
#: (predicate, arity, ground first arg) → rules discriminated by their
#: head's first argument.
_HeadFirst = Dict[Tuple[str, int, Term], List[_IndexedRule]]


class _ProveState:
    """Per-``prove()`` scratch state: table, counters, truncation tracking."""

    __slots__ = (
        "facts",
        "counter",
        "solved",
        "failed",
        "truncations",
        "facts_scanned",
        "rules_tried",
        "rules_prefiltered",
        "table_hits",
        "renames_avoided",
    )

    def __init__(self, facts: FactBase) -> None:
        self.facts = facts
        self.counter = itertools.count()
        #: Ground goal → fully grounded witness subtree.
        self.solved: Dict[Atom, ProofNode] = {}
        #: Ground goals whose exploration exhausted without truncation.
        self.failed: Set[Atom] = set()
        #: Depth-limit hits + cycle-guard prunes; failures observed while a
        #: truncation happened underneath are context-dependent and must not
        #: be negatively tabled.
        self.truncations = 0
        self.facts_scanned = 0
        self.rules_tried = 0
        self.rules_prefiltered = 0
        self.table_hits = 0
        self.renames_avoided = 0


class RuleSet:
    """A logically immutable collection of rules with an indexed, tabled prover.

    The tuple of rules is all a rule set *is*: equality, hashing and every
    verdict depend on nothing else.  The head indexes and the merged
    candidate lists are caches filled on first use, so a policy version
    that is published but never proved against (most of them, under policy
    churn) costs its tuple and nothing more.
    """

    def __init__(self, rules: Iterable[Rule]) -> None:
        self._rules: Tuple[Rule, ...] = tuple(rules)
        self._heads: Optional[Tuple[_HeadOpen, _HeadFirst]] = None
        #: Memoized merged candidate lists (the rule set is immutable, so
        #: a (predicate, arity, first-arg) key always yields the same list).
        self._candidate_cache: Dict[Tuple[str, int, object], Sequence[_IndexedRule]] = {}

    @property
    def rules(self) -> Tuple[Rule, ...]:
        return self._rules

    def __len__(self) -> int:
        return len(self._rules)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RuleSet) and self._rules == other._rules

    def __hash__(self) -> int:
        return hash(self._rules)

    def _head_indexes(self) -> Tuple[_HeadOpen, _HeadFirst]:
        """Both head indexes, built in rule-set order on the first call."""
        if self._heads is not None:
            return self._heads
        head_open: _HeadOpen = {}
        head_first: _HeadFirst = {}
        for position, rule in enumerate(self._rules):
            indexed = _IndexedRule(position, rule)
            key = (rule.head.predicate, len(rule.head.args))
            if rule.head.args and not isinstance(rule.head.args[0], Variable):
                head_first.setdefault((key[0], key[1], rule.head.args[0]), []).append(indexed)
            else:
                head_open.setdefault(key, []).append(indexed)
        self._heads = (head_open, head_first)
        return self._heads

    # -- candidate selection --------------------------------------------------

    def _rule_candidates(self, concrete: Atom) -> Sequence[_IndexedRule]:
        """Rules whose head functor/arity (and first argument) fit ``concrete``.

        Merged in original rule-set order so the engine tries rules in the
        same order the naive resolver would — the first witness found stays
        deterministic and familiar.
        """
        if concrete.args and not isinstance(concrete.args[0], Variable):
            cache_key = (concrete.predicate, len(concrete.args), concrete.args[0])
        else:
            cache_key = (concrete.predicate, len(concrete.args), None)
        cached = self._candidate_cache.get(cache_key)
        if cached is not None:
            return cached
        head_open, head_first = self._head_indexes()
        key = (concrete.predicate, len(concrete.args))
        open_rules = head_open.get(key, ())
        if cache_key[2] is not None:
            first: Sequence[_IndexedRule] = head_first.get(
                (key[0], key[1], concrete.args[0]), ()
            )
        else:
            # Variable first argument: every first-arg bucket of this functor
            # is a candidate.  Rare in authorization workloads (goals arrive
            # ground); correctness over speed here.
            first = [
                indexed
                for (pred, arity, _arg0), bucket in head_first.items()
                if pred == key[0] and arity == key[1]
                for indexed in bucket
            ]
        if not first:
            merged: Sequence[_IndexedRule] = open_rules
        elif not open_rules:
            merged = first
        else:
            combined = list(open_rules) + list(first)
            combined.sort(key=lambda indexed: indexed.position)
            merged = combined
        self._candidate_cache[cache_key] = merged
        return merged

    @staticmethod
    def _prefilter(indexed: _IndexedRule, concrete: Atom) -> bool:
        """Cheap pre-rename check: can the head possibly unify with the goal?

        Compares the head's ground arguments against the goal's; a clash on
        any position where both are ground proves non-unifiability without
        renaming or allocating.  (Positions where the goal still has a
        variable cannot be pre-judged and are left to ``unify``.)
        """
        goal_args = concrete.args
        for index, value in indexed.ground_head_args:
            goal_arg = goal_args[index]
            if goal_arg != value and not isinstance(goal_arg, Variable):
                return False
        return True

    def _fresh_head_body(
        self, indexed: _IndexedRule, state: _ProveState
    ) -> Tuple[Atom, Tuple[Atom, ...]]:
        """Rename the rule apart — lazily skipped for variable-free rules."""
        if not indexed.variables:
            state.renames_avoided += 1
            return indexed.head, indexed.body
        counter = state.counter
        mapping: Dict[Term, Term] = {
            var: Variable(f"{var.name}~{next(counter)}") for var in indexed.variables
        }
        head = indexed.head
        if indexed.ground_head_args and len(indexed.ground_head_args) == len(head.args):
            fresh_head = head  # fully ground head: nothing to rename
        else:
            fresh_head = _fast_atom(
                head.predicate, tuple(mapping.get(arg, arg) for arg in head.args)
            )
        fresh_body = tuple(
            _fast_atom(atom.predicate, tuple(mapping.get(arg, arg) for arg in atom.args))
            for atom in indexed.body
        )
        return fresh_head, fresh_body

    # -- the prover -----------------------------------------------------------

    def prove(
        self,
        goal: Atom,
        facts: FactBase,
        counters: Optional[EngineCounters] = None,
    ) -> Optional[ProofNode]:
        """Return a derivation of ``goal`` from ``facts``, or ``None``.

        Only the first proof found is returned (access control needs any
        witness, not all of them).  ``counters`` — when given — accumulates
        the engine's work statistics for this call.
        """
        state = _ProveState(facts)
        result: Optional[ProofNode] = None
        for subst, node in self._solve(goal, {}, state, 0, frozenset()):
            result = node_substitute(node, subst)
            break
        if counters is not None:
            counters.proofs += 1
            counters.facts_scanned += state.facts_scanned
            counters.rules_tried += state.rules_tried
            counters.rules_prefiltered += state.rules_prefiltered
            counters.table_hits += state.table_hits
            counters.renames_avoided += state.renames_avoided
        return result

    def _solve(
        self,
        goal: Atom,
        subst: Substitution,
        state: _ProveState,
        depth: int,
        stack: FrozenSet[Atom],
    ) -> Iterator[Tuple[Substitution, ProofNode]]:
        if depth > MAX_DEPTH:
            state.truncations += 1
            return
        concrete = goal.substitute(subst)
        if concrete in stack:
            state.truncations += 1
            return  # cycle guard
        if concrete.is_ground:
            yield from self._solve_ground(concrete, subst, state, depth, stack)
        else:
            yield from self._solve_open(concrete, subst, state, depth, stack)

    def _solve_ground(
        self,
        concrete: Atom,
        subst: Substitution,
        state: _ProveState,
        depth: int,
        stack: FrozenSet[Atom],
    ) -> Iterator[Tuple[Substitution, ProofNode]]:
        """Solve a fully ground subgoal: tabled, at most one witness.

        Every solution of a ground goal leaves the caller-visible
        substitution unchanged (only freshly renamed rule variables could be
        bound, and nothing else ever references them), so alternative
        witnesses are interchangeable for the rest of the search — yielding
        a single one cannot change any derivability verdict.
        """
        cached = state.solved.get(concrete)
        if cached is not None:
            state.table_hits += 1
            yield subst, cached
            return
        if concrete in state.failed:
            state.table_hits += 1
            return

        source = state.facts.match_ground(concrete)
        if source is not _MISSING:
            state.facts_scanned += 1
            node = ProofNode(concrete, "fact", source=source)
            state.solved[concrete] = node
            yield subst, node
            return

        truncations_before = state.truncations
        child_stack = stack | {concrete}
        for indexed in self._rule_candidates(concrete):
            if not self._prefilter(indexed, concrete):
                state.rules_prefiltered += 1
                continue
            state.rules_tried += 1
            fresh_head, fresh_body = self._fresh_head_body(indexed, state)
            extended = unify(concrete, fresh_head, subst)
            if extended is None:
                continue
            for body_subst, children in self._solve_body(
                fresh_body, 0, extended, state, depth + 1, child_stack, []
            ):
                grounded = ProofNode(
                    concrete,
                    "rule",
                    tuple(node_substitute(child, body_subst) for child in children),
                    rule=indexed.rule,
                )
                state.solved[concrete] = grounded
                yield subst, grounded
                return

        if state.truncations == truncations_before:
            # Exhaustive failure with no depth/cycle truncation underneath:
            # this goal fails in *every* context, so it is safe to table.
            state.failed.add(concrete)

    def _solve_open(
        self,
        concrete: Atom,
        subst: Substitution,
        state: _ProveState,
        depth: int,
        stack: FrozenSet[Atom],
    ) -> Iterator[Tuple[Substitution, ProofNode]]:
        """Solve a subgoal that still contains variables: full enumeration."""
        for fact, source in state.facts.candidates_for(concrete):
            state.facts_scanned += 1
            extended = unify(concrete, fact, subst)
            if extended is not None:
                yield extended, ProofNode(fact, "fact", source=source)
        child_stack = stack | {concrete}
        for indexed in self._rule_candidates(concrete):
            if not self._prefilter(indexed, concrete):
                state.rules_prefiltered += 1
                continue
            state.rules_tried += 1
            fresh_head, fresh_body = self._fresh_head_body(indexed, state)
            extended = unify(concrete, fresh_head, subst)
            if extended is None:
                continue
            for body_subst, children in self._solve_body(
                fresh_body, 0, extended, state, depth + 1, child_stack, []
            ):
                head_ground = fresh_head.substitute(body_subst)
                yield body_subst, ProofNode(head_ground, "rule", tuple(children), rule=indexed.rule)

    def _solve_body(
        self,
        body: Tuple[Atom, ...],
        index: int,
        subst: Substitution,
        state: _ProveState,
        depth: int,
        stack: FrozenSet[Atom],
        acc: List[ProofNode],
    ) -> Iterator[Tuple[Substitution, Tuple[ProofNode, ...]]]:
        """Solve ``body[index:]``, accumulating child nodes in ``acc``.

        The accumulator is shared down the recursion and truncated on
        backtracking, so a complete body solution costs one tuple copy
        instead of the old quadratic ``[first] + rest`` list chaining.
        """
        if index == len(body):
            yield subst, tuple(acc)
            return
        for first_subst, first_node in self._solve(body[index], subst, state, depth, stack):
            acc.append(first_node)
            yield from self._solve_body(body, index + 1, first_subst, state, depth, stack, acc)
            acc.pop()


def node_substitute(node: ProofNode, subst: Substitution) -> ProofNode:
    """Ground every atom of a proof tree under the final substitution."""
    if not subst:
        return node
    return ProofNode(
        node.atom.substitute(subst),
        node.justification,
        tuple(node_substitute(child, subst) for child in node.children),
        rule=node.rule,
        source=node.source,
    )
