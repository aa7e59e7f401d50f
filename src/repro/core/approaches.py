"""Proof-of-authorization enforcement approaches (Section IV).

Each approach is a strategy object plugged into the transaction manager.
It decides (a) whether servers evaluate proofs while executing queries,
(b) what the TM checks after each query, and (c) which commit-time protocol
runs.  The mapping from the paper (Section V-C "Discussion"):

=====================  ==========  ======================  =====================
Approach               exec eval   per-query TM action     commit-time protocol
=====================  ==========  ======================  =====================
Deferred (Def. 5)      no          —                       2PVC with validation
Punctual (Def. 6)      yes         abort on denial         2PVC with validation
Incremental (Def. 8)   yes         abort on denial or      2PVC without
                                   version inconsistency   validation (= 2PC)
Continuous (Def. 9)    no          2PV over all servers    view: 2PVC w/o
                                   so far; abort on fail   validation; global:
                                                           full 2PVC
=====================  ==========  ======================  =====================
"""

from __future__ import annotations

import abc
from typing import Any, Dict, Generator, Tuple, Type

from repro.core.context import TxnContext
from repro.core.twopvc import CommitResult
from repro.errors import AbortReason, TransactionAborted
from repro.sim.events import Event
from repro.sim.network import Message
from repro.transactions.transaction import Query


class ProofApproach(abc.ABC):
    """Strategy interface consumed by the transaction manager.

    All hooks are generators so they can perform simulated network activity
    (``yield`` events); hooks abort the transaction by raising
    :class:`~repro.errors.TransactionAborted`.
    """

    #: Human-readable approach name (matches the paper's terminology).
    name: str = "abstract"
    #: Whether servers evaluate proofs while executing each query.
    evaluate_during_execution: bool = False

    def before_query(
        self, tm: Any, ctx: TxnContext, query: Query, server: str
    ) -> Generator[Event, Any, None]:
        """Hook before a query is dispatched (default: nothing)."""
        return
        yield  # pragma: no cover - makes this function a generator

    def on_query_result(
        self, tm: Any, ctx: TxnContext, query: Query, server: str, reply: Message
    ) -> Generator[Event, Any, None]:
        """Hook after a query's result arrives (default: nothing)."""
        return
        yield  # pragma: no cover - makes this function a generator

    @abc.abstractmethod
    def at_commit(self, tm: Any, ctx: TxnContext) -> Generator[Event, Any, CommitResult]:
        """Run the commit-time protocol and return its result."""

    def __repr__(self) -> str:
        return f"<approach {self.name}>"


def require_granted(reply: Message) -> None:
    """Abort when an execution-time proof evaluation was denied.

    Shared by the punctual-family approaches: "early detections of unsafe
    transactions can save the system from going into expensive undo
    operations" (Section IV-B).
    """
    if reply["granted"] is False:
        proof = reply["proof"]
        raise TransactionAborted(
            AbortReason.PROOF_FAILED,
            f"query {reply['query_id']} denied at {proof.server}: {proof.reason}",
        )


#: The paper's four approaches (registry names), in its presentation order.
PAPER_APPROACHES: Tuple[str, ...] = ("deferred", "punctual", "incremental", "continuous")
#: Both consistency levels of Section III (``ConsistencyLevel`` values),
#: view first.
CONSISTENCY_LEVELS: Tuple[str, ...] = ("view", "global")

#: Registry populated by the concrete approach modules (via register()).
APPROACHES: Dict[str, Type[ProofApproach]] = {}


def register(cls: Type[ProofApproach]) -> Type[ProofApproach]:
    """Class decorator adding an approach to the registry."""
    APPROACHES[cls.name] = cls
    return cls


def get_approach(name: str) -> ProofApproach:
    """Instantiate an approach by paper name (e.g. ``"deferred"``)."""
    # Import the concrete modules lazily so the registry is populated even
    # when callers import only this module.
    from repro.core import continuous, deferred, incremental, punctual  # noqa: F401

    try:
        return APPROACHES[name]()
    except KeyError:
        raise KeyError(
            f"unknown approach {name!r}; known: {sorted(APPROACHES)}"
        ) from None
