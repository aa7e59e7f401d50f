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

from repro.cloud.config import MasterFetchMode
from repro.core.consistency import ConsistencyLevel
from repro.core.context import TxnContext
from repro.core.twopv import run_2pv
from repro.core.twopvc import CommitResult, run_2pvc
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


class DeferredProofs(ProofApproach):
    """Deferred proofs of authorization (Definition 5).

    "An optimistic system with weaker authorization guarantees": queries
    execute without any proof evaluation; all proofs are constructed and
    validated simultaneously at commit time, ω(T), inside 2PVC.  Transactions
    execute fastest but risk a full rollback at the very end.
    """

    name = "deferred"
    evaluate_during_execution = False

    def at_commit(self, tm: Any, ctx: TxnContext) -> Generator[Event, Any, CommitResult]:
        result = yield from run_2pvc(tm, ctx, validate=True)
        return result


class PunctualProofs(ProofApproach):
    """Punctual proofs of authorization (Definition 6).

    Proofs are evaluated *instantaneously* whenever a server handles a query,
    letting the TM abort unsafe transactions early and "save the system from
    going into expensive undo operations".  No freshness restriction is placed
    on the policies used during execution, so a mandatory re-evaluation of all
    proofs happens at commit time inside 2PVC (with either view or global
    consistency).
    """

    name = "punctual"
    evaluate_during_execution = True

    def on_query_result(
        self, tm: Any, ctx: TxnContext, query: Query, server: str, reply: Message
    ) -> Generator[Event, Any, None]:
        require_granted(reply)
        return
        yield  # pragma: no cover - makes this function a generator

    def at_commit(self, tm: Any, ctx: TxnContext) -> Generator[Event, Any, CommitResult]:
        result = yield from run_2pvc(tm, ctx, validate=True)
        return result


class IncrementalPunctualProofs(ProofApproach):
    """Incremental Punctual proofs of authorization (Definitions 7 & 8).

    Acts like Punctual during execution but additionally requires the desired
    policy-consistency level over every *view instance* — the prefix of proofs
    evaluated so far — at each step:

    * **View consistency**: the TM compares the policy version of the proof
      just evaluated against the versions used by every *final proof* earlier
      in the transaction for the same administrative domain and aborts on a
      mismatch.  (The paper's prose says abort when "newer than one previously
      seen"; we abort on *any* inequality, the reading under which the paper's
      claim that all final proofs were "generated with consistent policies"
      actually holds — see DESIGN.md §5.)
    * **Global consistency**: the TM retrieves the master version for every
      query (the ``+u`` messages of Table I) and aborts unless *every* version
      in the view instance — the new proof's and every earlier final proof's —
      equals the master's latest.

    Both checks run over the accumulated prefix of final proofs, not merely
    the newest reply: policies can change *between* queries (a publication
    landing mid-transaction advances the master), and servers are deduplicated
    per query, so comparing only the latest per-server report would let a
    transaction commit with proofs spanning two versions of one domain — a
    view-consistency (Def. 2) violation the trace sanitizer flags.  The
    multi-region scale runs, where WAN gaps between queries are hundreds of
    time units wide, exercise this constantly.

    Because consistency was maintained throughout, commit time needs no proof
    re-validation: 2PVC runs without validation, i.e. as plain 2PC.
    """

    name = "incremental"
    evaluate_during_execution = True

    def before_query(
        self, tm: Any, ctx: TxnContext, query: Query, server: str
    ) -> Generator[Event, Any, None]:
        if ctx.consistency is ConsistencyLevel.GLOBAL:
            # "polls ... the known master version" for every query.
            yield from tm.fetch_master_versions(ctx)

    def on_query_result(
        self, tm: Any, ctx: TxnContext, query: Query, server: str, reply: Message
    ) -> Generator[Event, Any, None]:
        require_granted(reply)
        admin = reply["admin"]
        version = reply["version"]
        # The view instance so far: versions used by every final proof of
        # this domain (the current reply's proof is already recorded).
        seen = {
            proof.policy_version
            for proof in ctx.latest_proofs.values()
            if proof.policy_id == admin
        } | {version}
        if ctx.consistency is ConsistencyLevel.GLOBAL:
            master = ctx.master_versions.get(admin)
            if master is None or seen != {master}:
                raise TransactionAborted(
                    AbortReason.POLICY_INCONSISTENCY,
                    f"view instance used versions {sorted(seen)} under "
                    f"{admin.admin}, master has v{master}",
                )
        elif len(seen) > 1:
            raise TransactionAborted(
                AbortReason.POLICY_INCONSISTENCY,
                f"view instance saw versions {sorted(seen)} for {admin.admin}",
            )
        return
        yield  # pragma: no cover - makes this function a generator

    def at_commit(self, tm: Any, ctx: TxnContext) -> Generator[Event, Any, CommitResult]:
        # "2PVC does not do policy validation and acts like 2PC."
        result = yield from run_2pvc(tm, ctx, validate=False)
        return result


class ContinuousProofs(ProofApproach):
    """Continuous proofs of authorization (Definition 9).

    The least permissive approach: after each query executes, the TM invokes
    2PV across *all* servers involved so far, forcing every previous proof to
    be re-evaluated under consistent policies.  Unlike Incremental Punctual, a
    newer policy version does not abort the transaction — 2PV pushes the newer
    policy to stale servers and re-evaluates (Section V-C).

    Commit time (Section VI-A): under view consistency the 2PV at the final
    query "does the equivalent work", so 2PVC runs without validations; under
    global consistency the full 2PVC (with validation and per-round master
    fetches) runs, contributing the ``2n + 2nr + r`` and ``ur`` terms of
    Table I.
    """

    name = "continuous"
    #: Proof evaluation happens inside the per-query 2PV (which covers the
    #: just-executed query too), not during query execution itself — this is
    #: what makes the proof count Σi = u(u+1)/2 rather than u + u(u+1)/2.
    evaluate_during_execution = False

    def on_query_result(
        self, tm: Any, ctx: TxnContext, query: Query, server: str, reply: Message
    ) -> Generator[Event, Any, None]:
        # One master fetch per 2PV invocation (the ``+u`` of Table I).
        result = yield from run_2pv(tm, ctx, master_mode=MasterFetchMode.ONCE)
        ctx.voting_rounds += result.rounds
        if not result.ok:
            raise TransactionAborted(
                result.abort_reason or AbortReason.PROOF_FAILED,
                f"2PV after query {query.query_id} returned ABORT",
            )

    def at_commit(self, tm: Any, ctx: TxnContext) -> Generator[Event, Any, CommitResult]:
        if ctx.consistency is ConsistencyLevel.VIEW:
            result = yield from run_2pvc(tm, ctx, validate=False)
        else:
            result = yield from run_2pvc(
                tm, ctx, validate=True, master_mode=MasterFetchMode.PER_ROUND
            )
        return result


#: The paper's four approaches (registry names), in its presentation order.
PAPER_APPROACHES: Tuple[str, ...] = ("deferred", "punctual", "incremental", "continuous")
#: Both consistency levels of Section III (``ConsistencyLevel`` values),
#: view first.
CONSISTENCY_LEVELS: Tuple[str, ...] = ("view", "global")

#: The registry: every paper approach by name, in presentation order.
APPROACHES: Dict[str, Type[ProofApproach]] = {
    cls.name: cls
    for cls in (DeferredProofs, PunctualProofs, IncrementalPunctualProofs, ContinuousProofs)
}


def get_approach(name: str) -> ProofApproach:
    """Instantiate an approach by paper name (e.g. ``"deferred"``)."""
    try:
        return APPROACHES[name]()
    except KeyError:
        raise KeyError(
            f"unknown approach {name!r}; known: {sorted(APPROACHES)}"
        ) from None
