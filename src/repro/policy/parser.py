"""A textual language for authorization rules.

Policy administrators write rules the way the paper presents them, as
Datalog/Prolog-style clauses::

    # CompuMe access policy, version 1
    may_read(U, I)  :- sales_rep(U), assigned_region(U, R),
                       located_in(U, R), item(I).
    may_read(U, I)  :- read_capability(U, J), item(I).
    item(customers/acme-account).

Syntax:

* identifiers starting with an **uppercase** letter are variables
  (``U``, ``Region``); everything else is a constant.  Bare constants may
  contain letters, digits, ``_``, ``-`` and ``/``; anything else (spaces,
  dots, colons, ...) can be single-quoted (``'hello world'``).
* a clause is ``head.`` (a fact) or ``head :- body1, body2, ... .``
* ``#`` and ``%`` start comments running to end of line.

Body literals are positive atoms: the paper's policies are inference
rules satisfied from credentials, and the engine has no negation.

There is one grammar and one parser: :func:`parse_clauses` returns
:class:`Clause` values with source spans and applies no safety check (the
analyzer reports unsafe clauses); :func:`parse_rules` builds a
:class:`~repro.policy.rules.RuleSet` from them, and :func:`render_rules`
is its inverse (parse ∘ render = identity, which the property tests
check).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, List, NamedTuple, Optional, Tuple

from repro.errors import PolicyError
from repro.policy.rules import Atom, Rule, RuleSet, Term, Variable


class Token(NamedTuple):
    kind: str
    text: str
    line: int
    column: int


_TOKEN_SPEC = [
    ("COMMENT", r"[#%][^\n]*"),
    ("ARROW", r":-"),
    ("LPAREN", r"\("),
    ("RPAREN", r"\)"),
    ("COMMA", r","),
    ("DOT", r"\."),
    ("QUOTED", r"'(?:[^'\\]|\\.)*'"),
    ("NAME", r"[A-Za-z_][A-Za-z0-9_\-/]*"),
    ("NUMBER", r"-?[0-9]+"),
    ("NEWLINE", r"\n"),
    ("SPACE", r"[ \t\r]+"),
]
_TOKEN_RE = re.compile("|".join(f"(?P<{kind}>{pattern})" for kind, pattern in _TOKEN_SPEC))


def tokenize(text: str) -> Iterator[Token]:
    """Yield tokens, raising :class:`PolicyError` on junk characters."""
    line, line_start = 1, 0
    position = 0
    while position < len(text):
        match = _TOKEN_RE.match(text, position)
        if match is None:
            column = position - line_start + 1
            raise PolicyError(
                f"policy syntax error at line {line}, column {column}: "
                f"unexpected character {text[position]!r}"
            )
        kind = match.lastgroup or ""
        value = match.group()
        if kind == "NEWLINE":
            line += 1
            line_start = match.end()
        elif kind not in ("SPACE", "COMMENT"):
            yield Token(kind, value, line, position - line_start + 1)
        position = match.end()


@dataclass(frozen=True)
class Literal:
    """One body literal: an atom with its source span."""

    atom: Atom
    line: int = 0
    col: int = 0

    def __repr__(self) -> str:
        return repr(self.atom)


@dataclass(frozen=True)
class Clause:
    """A parsed clause ``head :- body`` (body may be empty: a fact).

    Unlike :class:`repro.policy.rules.Rule`, construction never rejects
    unsafe clauses — detecting them is the analyzer's job.
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
        body = ", ".join(render_atom(lit.atom) for lit in self.body)
        return f"{render_atom(self.head)} :- {body}."


class _Parser:
    """Recursive-descent parser over the token stream, producing
    :class:`Clause` values with spans; no safety checks are applied."""

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
                f"policy syntax error: unexpected end of input"
                + (f" (expected {expected})" if expected else "")
            )
        if expected is not None and token.kind != expected:
            raise PolicyError(
                f"policy syntax error at line {token.line}: expected {expected}, "
                f"got {token.kind} {token.text!r}"
            )
        self._index += 1
        return token

    # -- grammar ------------------------------------------------------------

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
        atom, line, col = self.parse_atom()
        return Literal(atom, line=line, col=col)

    def parse_atom(self) -> Tuple[Atom, int, int]:
        name = self._next("NAME")
        if _is_variable_name(name.text):
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
        if _is_variable_name(name.text):
            return Variable(name.text)
        return name.text


def _is_variable_name(text: str) -> bool:
    return bool(text) and text[0].isupper()


def parse_clauses(text: str) -> List[Clause]:
    """Parse policy text into clauses with source spans (unsafe ones allowed)."""
    return _Parser(text).parse_program()


def parse_rules(text: str) -> RuleSet:
    """Parse a rule program into a :class:`RuleSet` (unsafe heads refused)."""
    return RuleSet(
        [
            Rule(clause.head, tuple(literal.atom for literal in clause.body))
            for clause in parse_clauses(text)
        ]
    )


def parse_atom(text: str) -> Atom:
    """Parse a single atom, e.g. ``"may_read(bob, customers)"``."""
    parser = _Parser(text)
    atom, _line, _col = parser.parse_atom()
    leftover = parser._peek()
    if leftover is not None:
        raise PolicyError(
            f"policy syntax error: trailing input after atom at line {leftover.line}"
        )
    return atom


# -- rendering (the inverse) ------------------------------------------------------

# Strings renderable without quotes: NAME-shaped and not variable-like.
# Numeric-looking strings must be quoted or they would re-parse as ints.
_PLAIN_CONSTANT = re.compile(r"[a-z_][A-Za-z0-9_\-/]*$")


def render_term(term: Term) -> str:
    if isinstance(term, Variable):
        return term.name
    if isinstance(term, int):
        return str(term)
    if _PLAIN_CONSTANT.match(term) and not _is_variable_name(term):
        return term
    escaped = term.replace("\\", "\\\\").replace("'", "\\'")
    return f"'{escaped}'"


def render_atom(atom: Atom) -> str:
    if not atom.args:
        return atom.predicate
    return f"{atom.predicate}({', '.join(render_term(arg) for arg in atom.args)})"


def render_rule(rule: Rule) -> str:
    if not rule.body:
        return f"{render_atom(rule.head)}."
    body = ", ".join(render_atom(atom) for atom in rule.body)
    return f"{render_atom(rule.head)} :- {body}."


def render_rules(rules: RuleSet, header: str = "") -> str:
    """Render a rule set as parseable program text."""
    lines = [f"# {header}"] if header else []
    lines.extend(render_rule(rule) for rule in rules)
    return "\n".join(lines) + "\n"
