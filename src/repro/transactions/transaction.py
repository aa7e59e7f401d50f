"""Transactions and queries (the paper's ``T = {q1, q2, ..., qn}``).

A transaction is an ordered sequence of queries executed sequentially
(Section III-A: "queries belonging to a transaction execute sequentially"),
each touching a set of data items ``m(q)`` hosted on a single server.  The
submitting user attaches the credentials used to construct proofs of
authorization at every server.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.errors import StorageError
from repro.policy.credentials import Credential
from repro.policy.policy import Operation

_txn_serial = itertools.count(1)


class EffectKind(enum.Enum):
    """How a write query changes an item."""

    SET = "set"
    DELTA = "delta"


@dataclass(frozen=True, slots=True)
class QueryEffect:
    """A write effect on one item: overwrite (SET) or increment (DELTA)."""

    key: str
    kind: EffectKind
    amount: Any

    def apply(self, current: Any) -> Any:
        if self.kind is EffectKind.SET:
            return self.amount
        return current + self.amount


@dataclass(frozen=True, slots=True)
class Query:
    """One read or update request, the unit distributed to servers.

    ``m(q)`` — the set of items touched — is :attr:`items`.  All items of a
    query must live on the same server (the transaction manager routes the
    query there).
    """

    query_id: str
    operation: Operation
    items: Tuple[str, ...]
    effects: Tuple[QueryEffect, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "items", tuple(self.items))
        object.__setattr__(self, "effects", tuple(self.effects))
        if self.operation is Operation.WRITE and not self.effects:
            raise StorageError(f"write query {self.query_id!r} has no effects")
        if self.operation is Operation.READ and self.effects:
            raise StorageError(f"read query {self.query_id!r} must not carry effects")
        for effect in self.effects:
            if effect.key not in self.items:
                raise StorageError(
                    f"query {self.query_id!r}: effect on {effect.key!r} outside m(q)"
                )

    @staticmethod
    def read(query_id: str, items: Sequence[str]) -> "Query":
        """A read query over ``items``."""
        return Query(query_id, Operation.READ, tuple(items))

    @staticmethod
    def write(query_id: str, sets: Optional[Dict[str, Any]] = None,
              deltas: Optional[Dict[str, Any]] = None) -> "Query":
        """A write query setting and/or incrementing items."""
        effects = []
        for key, value in (sets or {}).items():
            effects.append(QueryEffect(key, EffectKind.SET, value))
        for key, value in (deltas or {}).items():
            effects.append(QueryEffect(key, EffectKind.DELTA, value))
        items = tuple(effect.key for effect in effects)
        return Query(query_id, Operation.WRITE, items, tuple(effects))


@dataclass(frozen=True, slots=True)
class Transaction:
    """An ACID transaction submitted by a user along with their credentials."""

    txn_id: str
    user: str
    queries: Tuple[Query, ...]
    credentials: Tuple[Credential, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "queries", tuple(self.queries))
        object.__setattr__(self, "credentials", tuple(self.credentials))
        seen = set()
        for query in self.queries:
            if query.query_id in seen:
                raise StorageError(f"duplicate query id {query.query_id!r} in {self.txn_id!r}")
            seen.add(query.query_id)

    @property
    def size(self) -> int:
        """``u`` — the number of queries."""
        return len(self.queries)

    def items_touched(self) -> Tuple[str, ...]:
        """Union of ``m(q)`` over all queries, in first-touch order."""
        seen: list = []
        for query in self.queries:
            for item in query.items:
                if item not in seen:
                    seen.append(item)
        return tuple(seen)


def next_txn_id(prefix: str = "txn") -> str:
    """Generate a fresh process-wide transaction id."""
    return f"{prefix}-{next(_txn_serial)}"
